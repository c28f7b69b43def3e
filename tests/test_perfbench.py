"""The benchmark harness under perfbench/ imports plan_from_dict,
plan_estimator and replicate_seed_sequences and traces lasso_cv's keyword
arguments by name, so its self-test fails when a rename in src/ breaks it.

Its tracer also times functions by name: a span whose function is gone, or
no longer public, reads 0 without failing anything, so every span name it
reads is checked against the module it names."""
import importlib
import inspect
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import tracing  # noqa: E402


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]


def span_names() -> list[str]:
    """Every span name `tracing` reads: its HARNESS, its RETURN_HOOKS keys,
    and each `<layer>.<fn>` that `layer_metrics` looks up, the
    `estimators.estimate_<name>` of each ESTIMATORS entry among them. With
    no spans recorded, every lookup misses, and the misses are noted."""
    read = set()

    class Reads(Counter):
        def __missing__(self, key):
            read.add(key)
            return 0

    tracing.Counter, counter = Reads, tracing.Counter
    try:
        tracing.layer_metrics(SimpleNamespace(spans=[], counters=counter()), 1)
    finally:
        tracing.Counter = counter
    return sorted(read | set(tracing.HARNESS) | set(tracing.RETURN_HOOKS))


GONE = {
    "estimators.estimate_crossfit_aipw_parametric_ps":
        "folded into estimate_crossfit_aipw: see the FOUND line on "
        "estimators.crossfit_aipw_parametric_ps.ms in CHANGES.md",
    "selection.post_selection_refit":
        "folded into PostLassoLearner.train: see the FOUND line on "
        "selection.post_selection_refit.self_ms in CHANGES.md",
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=GONE[name]))
    if name in GONE else name
    for name in span_names()
])
def test_every_span_names_a_public_function(name):
    layer, attr = name.split(".")
    assert layer in tracing.LAYERS
    module = importlib.import_module(f"trialcraft.{layer}")
    if layer == "learners" and attr in tracing.LEARNER_METHODS:
        assert any(inspect.isfunction(vars(cls).get(attr))
                   for cls in vars(module).values() if inspect.isclass(cls))
        return
    fn = getattr(module, attr, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
    assert not attr.startswith("_") and (layer != "cli" or attr == "main")
