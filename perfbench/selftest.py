"""Fast self-test of the benchmark: runs each workload at a tiny size, shows
that its outputs pass the correctness checks, and that every check rejects
a perturbed result. Also checks that BENCHMARK.json lists exactly the
workloads and metrics the benchmark prints.

    python3 perfbench/selftest.py

Exit code 0 when every expectation holds, 1 otherwise.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from types import SimpleNamespace

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import specs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7
TINY_ROWS = 400
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        problems.append(what)


def rejects(failures: list[str]) -> bool:
    return bool(failures)


def check_benchmark_json() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(specs.WORKLOADS),
           "BENCHMARK.json lists the workloads of specs.WORKLOADS")
    expect([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
           == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == list(tracing.PER_LAYER), "BENCHMARK.json per_layer matches tracing.PER_LAYER")


def check_contract() -> None:
    args = dict(theta=0.4, mu1=1.1, mu0=0.7, se=0.1,
                ci_low=0.4 - checks.Z_CRIT * 0.1, ci_high=0.4 + checks.Z_CRIT * 0.1)
    expect(not checks.estimate_contract(**args), "contract accepts a consistent estimate")
    for key, value in (("theta", 0.4 + 1e-6), ("ci_low", args["ci_low"] - 1e-6),
                       ("ci_high", args["ci_high"] + 1e-6), ("se", 0.0), ("se", float("nan"))):
        expect(rejects(checks.estimate_contract(**{**args, key: value})),
               f"contract rejects {key} = {value!r}")
    odds = dict(args, theta=checks._logit(0.6) - checks._logit(0.4), mu1=0.6, mu0=0.4)
    odds.update(ci_low=odds["theta"] - checks.Z_CRIT * 0.1, ci_high=odds["theta"] + checks.Z_CRIT * 0.1)
    expect(not checks.estimate_contract(**odds, contrast="log_odds_ratio"),
           "contract accepts a log odds ratio")
    expect(rejects(checks.estimate_contract(**odds)),
           "contract rejects a log odds ratio read as a difference")


def check_truths() -> None:
    rd = checks.true_effect(specs.BINARY)
    # pinned in tests/test_binary_end_to_end.py from a 10^7-draw oracle
    expect(abs(rd - 0.19673) < 5e-5, f"binary risk difference {rd:.6f} ~ 0.19673")
    mu1, mu0 = rd + 0.5, 0.5
    expect(abs(checks.true_effect(specs.BINARY, "log_odds_ratio")
               - (checks._logit(mu1) - checks._logit(mu0))) < 1e-12,
           "log odds ratio truth comes from the same two arm means")


def check_mc(name: str, rounds: int) -> None:
    wl = workloads.McWorkload(name, SEED)
    payloads = {r: wl.run_round(r).payload for r in range(rounds)}
    samples, failures = wl.samples(payloads)
    expect(not failures, f"{name}: replicates complete and regenerate: {failures}")
    for label, plan, truth, est, ses, unadj in samples:
        expect(not checks.bias_check(label, est, ses, truth), f"{label}: bias check passes")
        shift = 5 * checks.BIAS_MC_SE * checks.mc_se(est, ses)
        expect(rejects(checks.bias_check(label, est, ses, truth + shift)),
               f"{label}: bias check rejects a shifted truth")
        if plan.plan["estimator"] == "strong_null":
            expect(not checks.null_rejection_check(label, est, ses),
                   f"{label}: null rejection count passes")
            expect(rejects(checks.null_rejection_check(label, est + 3 * ses, ses)),
                   f"{label}: null check rejects estimates shifted by 3 SE")
            expect(rejects(checks.null_rejection_check(label, np.tile(est * 0.0, 40),
                                                       np.tile(ses, 40))),
                   f"{label}: null check rejects a test that never rejects")
        if unadj is not None:
            expect(rejects(checks.efficiency_check(label, unadj * 1.5, unadj)),
                   f"{label}: efficiency check rejects an inflated variance")
            first = next(iter(payloads))
            master_seed, rep = payloads[first][0]
            bad = dataclasses.replace(rep, relative_efficiency_vs_unadjusted=
                                      rep.relative_efficiency_vs_unadjusted * (1 + 1e-6))
            _, failures = wl.samples({first: [(master_seed, bad)] + payloads[first][1:]})
            expect(rejects(failures), f"{label}: regeneration check rejects a changed RE")

    perturbed = checks.CheckedEstimator(_shift_theta(wl.estimators[0].estimate),
                                        wl.estimators[0].contrast)
    wl.estimators[0] = perturbed
    try:
        wl.run_round(0)
        expect(False, f"{name}: a perturbed estimate ends the run")
    except checks.ContractViolation:
        expect(True, f"{name}: a perturbed estimate ends the run")


def _shift_theta(estimate):
    def shifted(dataset, seed):
        r = estimate(dataset, seed)
        return dataclasses.replace(r, theta_hat=r.theta_hat + 1e-6)
    return shifted


def check_analyze(workdir: str) -> None:
    wl = workloads.AnalyzeWorkload(SEED, workdir, rows=TINY_ROWS)
    payloads = {r: wl.run_round(r).payload for r in range(2)}
    failures = wl.check(payloads)
    expect(not failures, f"analyze_wide at {TINY_ROWS} rows passes: {failures}")
    report = payloads[0][0]

    def with_report(mutate):
        """Both analyses of file 0 replaced by one mutated report."""
        doc = json.loads(report)
        mutate(doc)
        bad = json.dumps(doc).encode()
        return {r: [bad, *reports[1:]] for r, reports in payloads.items()}

    est = json.loads(report)["estimate"]
    for key, value in (("theta_hat", est["theta_hat"] + 1e-6),
                       ("se", est["se"] * (1 + 1e-6)),
                       ("mu1_hat", est["mu1_hat"] + 1e-6)):
        expect(rejects(wl.check(with_report(lambda d: d["estimate"].update({key: value})))),
               f"analyze_wide check rejects {key} perturbed by 1e-6")
    expect(rejects(wl.check(with_report(
        lambda d: d["estimate"]["diagnostics"]["selected_1"].remove("c01")))),
        "analyze_wide check rejects a prognostic column left out")
    expect(rejects(wl.check(with_report(lambda d: d.update(n_treated=d["n_treated"] + 1)))),
           "analyze_wide check rejects wrong counts")
    expect(rejects(wl.check({**payloads, 0: [report + b" ", *payloads[0][1:]]})),
           "analyze_wide check rejects reports that differ between invocations")


class _ReplayStub:
    """A workload whose output changes when trialcraft is traced."""

    def run_round(self, r):
        import trialcraft.plans

        traced = hasattr(trialcraft.plans.execute_plan, "__wrapped__")
        return workloads.RoundResult(1, 0, 1e-3, None, f"{r}{traced}".encode())


def check_trace_equality() -> None:
    failures: list[str] = []
    args = SimpleNamespace(seconds=0.0)
    metrics = run.per_layer(run.Run(_ReplayStub()), args, 2, failures)
    expect(rejects(failures), "traced run check rejects estimates that change under tracing")
    expect(set(metrics) == {name for name, _, _ in tracing.PER_LAYER},
           "the traced run reports every per-layer metric")
    import trialcraft.plans

    expect(not hasattr(trialcraft.plans.execute_plan, "__wrapped__"),
           "the tracer restores the program's functions")


def main() -> int:
    workdir = run.WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_benchmark_json()
        check_contract()
        check_truths()
        check_mc("mc_lasso", 1)
        check_mc("mc_crossfit", 1)
        check_mc("mc_binary", 1)
        check_analyze(str(workdir))
        check_trace_equality()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(problems)} problem(s)" if problems else "self-test passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
