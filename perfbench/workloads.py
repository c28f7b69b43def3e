"""The four workloads. Each runs in rounds: a round is a fixed set of
operations (Monte Carlo replicates, or one `analyze` invocation) whose
inputs derive from the run seed and the round index alone, so a round can
be replayed exactly, for example under tracing.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

import checks
import specs
from trialcraft import cli, simulation
from trialcraft.errors import TrialcraftError
from trialcraft.plans import plan_estimator, plan_from_dict
from trialcraft.simulation import DgpSpec


def derive_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


@dataclass
class RoundResult:
    ops: int
    failed: int
    seconds: float
    payload: object
    fingerprint: bytes


class McWorkload:
    """Monte Carlo replicates through the public library path:
    plan_from_dict -> plan_estimator -> run_monte_carlo, with the program's
    default worker count."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.index = specs.WORKLOADS.index(name)
        self.plans = specs.MC_WORKLOADS[name]
        self.truths = [checks.true_effect(p.dgp, p.plan.get("contrast")) for p in self.plans]
        # binary DGPs need their effect pinned; it is the benchmark's own
        self.dgps = [
            DgpSpec(**p.dgp, true_theta=truth if p.dgp["outcome_kind"] == "binary" else None)
            for p, truth in zip(self.plans, self.truths)
        ]
        self.estimators = [
            checks.CheckedEstimator(plan_estimator(plan_from_dict(p.plan)), p.plan.get("contrast"))
            for p in self.plans
        ]

    def run_round(self, r: int) -> RoundResult:
        payload, fingerprint = [], []
        ops = failed = 0
        start = time.perf_counter()
        for i, (plan, dgp, estimate) in enumerate(zip(self.plans, self.dgps, self.estimators)):
            master_seed = derive_seed(self.seed, self.index, i, r)
            ops += plan.replicates
            try:
                # looked up on the module, so that a traced run sees the call
                report = simulation.run_monte_carlo(dgp, estimate, replicates=plan.replicates,
                                                    master_seed=master_seed,
                                                    paired_unadjusted=plan.paired_unadjusted)
            except TrialcraftError:
                # more than 1% of the call's replicates failed: all count
                failed += plan.replicates
                payload.append(None)
                continue
            failed += report.n_failed
            payload.append((master_seed, report))
            fingerprint += [report.estimates.tobytes(), report.ses.tobytes()]
        seconds = time.perf_counter() - start
        return RoundResult(ops, failed, seconds, payload, b"".join(fingerprint))

    def _unadjusted(self, i: int, master_seed: int, replicates: int) -> np.ndarray:
        """Difference in means on the harness's own datasets: replicate r
        draws its data from the first child of
        replicate_seed_sequences(master_seed, R)[r]."""
        out = np.empty(replicates)
        for r, sequence in enumerate(simulation.replicate_seed_sequences(master_seed, replicates)):
            d = simulation.generate_dataset(self.dgps[i], sequence.spawn(2)[0])
            out[r] = checks.difference_in_means(d.y, d.z)
        return out

    def samples(self, payloads: dict):
        """Per plan: (plan, truth, estimates, SEs, paired unadjusted estimates
        or None) over the completed replicates, and any failures met."""
        samples, failures = [], []
        for i, (plan, truth) in enumerate(zip(self.plans, self.truths)):
            label = f"{self.name}/{plan.label}"
            done = [p[i] for p in payloads.values() if p[i] is not None]
            if not done:
                failures.append(f"{label}: no completed replicates")
                continue
            est = np.concatenate([rep.estimates for _, rep in done])
            ses = np.concatenate([rep.ses for _, rep in done])
            ok = np.isfinite(est)
            if not np.all(np.isfinite(ses[ok]) & (ses[ok] > 0)):
                failures.append(f"{label}: an SE is not finite and positive")
                continue
            unadj = None
            if plan.paired_unadjusted:
                unadj = []
                for master_seed, rep in done:
                    u = self._unadjusted(i, master_seed, plan.replicates)
                    # the regenerated datasets must be the harness's own
                    re = float(np.var(u, ddof=1) / np.var(rep.estimates, ddof=1))
                    if not abs(re - rep.relative_efficiency_vs_unadjusted) <= 1e-9 * re:
                        failures.append(f"{label}: regenerated unadjusted estimates do not "
                                        f"match the harness (RE {re} vs "
                                        f"{rep.relative_efficiency_vs_unadjusted})")
                    unadj.append(u)
                unadj = np.concatenate(unadj)[ok]
            samples.append((label, plan, truth, est[ok], ses[ok], unadj))
        return samples, failures

    def check(self, payloads: dict) -> list[str]:
        samples, failures = self.samples(payloads)
        for label, plan, truth, est, ses, unadj in samples:
            failures += checks.bias_check(label, est, ses, truth)
            if plan.plan["estimator"] == "strong_null":
                failures += checks.null_rejection_check(label, est, ses)
            if unadj is not None:
                failures += checks.efficiency_check(label, est, unadj)
        return failures


def write_trial_csv(path: str, y, z, x) -> None:
    """CSV with exact (repr) floats; missing cells alternate between the
    two missing tokens, empty and NA."""
    lines = ["y,z," + ",".join(specs.COVARIATE_NAMES)]
    for i in range(y.size):
        cells = [repr(float(y[i])), str(int(z[i]))]
        for j, v in enumerate(x[i]):
            cells.append(("" if (i + j) % 2 else "NA") if np.isnan(v) else repr(float(v)))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def make_trial(seed: int, rows: int = specs.ROWS):
    """(y, z, x with NaN for missing cells) of one analyze_wide trial."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, specs.COVARIATES))
    z = (rng.uniform(size=rows) < 0.5).astype(float)
    base = {name: x[:, j] for j, name in enumerate(specs.COVARIATE_NAMES)}
    y = specs.EFFECT * z + rng.standard_normal(rows)
    for term, coef in specs.PROGNOSTIC.items():
        y += coef * checks.expanded_column(term, base)
    y -= specs.PROGNOSTIC["c01^2"]  # keep the squared term mean-zero
    x_observed = np.where(rng.uniform(size=x.shape) < specs.MISSING_SHARE, np.nan, x)
    return y, z, x_observed


class AnalyzeWorkload:
    """`trialcraft analyze` run in-process through cli.main; a round
    analyzes each of the FILES trial files once."""

    def __init__(self, seed: int, workdir: str, rows: int = specs.ROWS):
        self.name = "analyze_wide"
        index = specs.WORKLOADS.index(self.name)
        self.trials = [make_trial(derive_seed(seed, index, f), rows) for f in range(specs.FILES)]
        self.csv_paths = []
        for f, (y, z, x) in enumerate(self.trials):
            path = os.path.join(workdir, f"trial_{f}.csv")
            write_trial_csv(path, y, z, x)
            self.csv_paths.append(path)
        self.plan_path = os.path.join(workdir, "plan.json")
        with open(self.plan_path, "w", encoding="utf-8") as fh:
            json.dump(specs.analyze_plan(derive_seed(seed, index, 99) % 2**31), fh)
        self.out_paths = [os.path.join(workdir, f"report_{f}.json") for f in range(specs.FILES)]

    def run_round(self, r: int) -> RoundResult:
        failed, seconds, reports = 0, 0.0, []
        for f, (csv_path, out) in enumerate(zip(self.csv_paths, self.out_paths)):
            if os.path.exists(out):
                os.remove(out)
            argv = ["analyze", "--data", csv_path, "--plan", self.plan_path, "--out", out]
            start = time.perf_counter()
            code = cli.main(argv)
            seconds += time.perf_counter() - start
            report = None
            if code == 0:
                with open(out, "rb") as fh:
                    report = fh.read()
            failed += int(code != 0)
            reports.append(report)
        return RoundResult(len(reports), failed, seconds, reports,
                           b"".join(rep or b"" for rep in reports))

    def check(self, payloads: dict) -> list[str]:
        failures = []
        for f in range(specs.FILES):
            label = f"{self.name}/trial_{f}"
            reports = [p[f] for p in payloads.values() if p[f] is not None]
            if not reports:
                failures.append(f"{label}: no completed analysis")
                continue
            if any(rep != reports[0] for rep in reports):
                failures.append(f"{label}: repeated invocations wrote different reports")
            report = json.loads(reports[0])
            y, z, x = self.trials[f]
            if (report["n"], report["n_treated"]) != (y.size, int(z.sum())):
                failures.append(f"{label}: report counts {report['n']}/{report['n_treated']} "
                                f"!= {y.size}/{int(z.sum())}")
            diag = report["estimate"]["diagnostics"]
            reference = checks.analyze_reference(y, z, x, specs.COVARIATE_NAMES,
                                                 diag["refit_columns_1"], diag["refit_columns_0"])
            failures += [f"{label}: {msg}" for msg in
                         checks.analyze_report_check(report, reference, specs.PROGNOSTIC)]
        return failures


def build(name: str, seed: int, workdir: str):
    if name == "analyze_wide":
        return AnalyzeWorkload(seed, workdir)
    return McWorkload(name, seed)
