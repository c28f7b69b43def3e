"""A short seeded run of the `tests/fuzz_analyze.py` sweep: every `analyze`
run on a random small trial and plan ends in a report or in one named error
line. `python tests/fuzz_analyze.py --seed S --runs N` runs a longer one."""
import fuzz_analyze


def test_every_analyze_run_ends_in_a_report_or_one_named_error():
    found = fuzz_analyze.sweep(seed=1, runs=150)
    counts, examples = found["counts"], found["examples"]
    for what in ("traceback", "multi-line stderr", "null estimate at exit 0"):
        assert counts[what] == 0, examples[what]
    # a non-finite fit, solve, SD or loss ends in a report or a named error,
    # not a numpy warning, in every trialcraft module
    assert not found["sites"], found["sites"]
