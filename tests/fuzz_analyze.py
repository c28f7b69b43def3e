"""Sweep `trialcraft analyze` over random small trials and plans, and count
the runs that do not end in a report or one named error line.

A check to run by hand; pytest does not collect it, and
`tests/test_fuzz_smoke.py` runs a short `sweep` of it. Each run writes a random
CSV (n from 4 to 60, p from 1 to 4, a Gaussian or a 0/1 outcome) whose
covariates may be constant, a copy of another covariate or of the arm,
scaled by 1e160 or 1e-160, or missing in a few cells, and whose Gaussian
outcome may be scaled up to 1e200. Its plan takes a random estimator and
sets random values of fields that estimator's `plans.ESTIMATORS` row reads,
its learner's fields among them.
Then `cli.main(["analyze", ...])` runs, and the sweep counts

- tracebacks: an exception that escapes `main`;
- warnings, by the innermost trialcraft line that raised them;
- stderr of more than one line;
- exit 0 with a null θ̂ or SE in the report;

and prints one example of each. Runs are a pure function of `--seed`.

    PYTHONPATH=src python tests/fuzz_analyze.py --seed 2 --runs 1500
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import tempfile
import traceback
import warnings
from collections import Counter

import numpy as np

from trialcraft.cli import main
from trialcraft.learners import LEARNERS
from trialcraft.plans import ESTIMATORS

KINDS = ("normal", "normal", "normal", "constant", "copy", "arm", "huge", "tiny")


def trial_csv(rng, binomial: bool) -> tuple[str, list[str], int]:
    """A random trial as CSV text, its covariate names and its row count."""
    n, p = int(rng.integers(4, 61)), int(rng.integers(1, 5))
    z = rng.permutation(np.arange(n) % 2)
    x = rng.standard_normal((n, p))
    for j in range(p):
        kind = KINDS[rng.integers(len(KINDS))]
        if kind == "constant":
            x[:, j] = rng.normal()
        elif kind == "copy" and j > 0:
            x[:, j] = x[:, j - 1]
        elif kind == "arm":
            x[:, j] = z
        elif kind in ("huge", "tiny"):
            x[:, j] *= 1e160 if kind == "huge" else 1e-160
    signal = 0.5 * z + x[:, 0] / (np.abs(x[:, 0]).max() or 1.0)
    if binomial:
        y = (rng.uniform(size=n) < 1 / (1 + np.exp(-signal))).astype(int)
    else:
        y = (signal + rng.standard_normal(n)) * 10.0 ** rng.choice([0, 0, 0, 100, 200])
    names = [f"x{j}" for j in range(p)]
    cells = [[repr(float(v)) for v in row] for row in x]
    for i, j in zip(*np.nonzero(rng.uniform(size=x.shape) < 0.03)):
        cells[i][j] = "NA"
    lines = [",".join(["y", "z", *names])]
    lines += [",".join([repr(y[i].item()), str(z[i]), *cells[i]]) for i in range(n)]
    return "\n".join(lines) + "\n", names, n


def random_learner(rng, n: int) -> dict:
    """A random learner with random values of its fields, within their bounds:
    ridge's grid ([0.0], [0.0, 1.0] or the default), knn's k (the default, or
    from 1 to beyond the n rows) and post_lasso's k_cv (2 to 5) and rule."""
    name = list(LEARNERS)[rng.integers(len(LEARNERS))]
    params = {}
    if name == "ridge":
        params = [{"lambda_grid": [0.0]}, {"lambda_grid": [0.0, 1.0]}, {}][rng.integers(3)]
    elif name == "knn" and rng.uniform() < 0.5:
        params = {"k": int(rng.integers(1, n + 3))}
    elif name == "post_lasso":
        params = {"k_cv": int(rng.integers(2, 6)), "lambda_rule": ["1se", "min"][rng.integers(2)]}
    return {"name": name, "params": params}


def random_plan(rng, binomial: bool, names: list[str], n: int) -> dict:
    """A plan for a random estimator on n rows, setting random values of
    fields it reads."""
    estimator = list(ESTIMATORS)[rng.integers(len(ESTIMATORS))]
    rules = ESTIMATORS[estimator]
    reads = rules.reads
    plan = {"estimator": estimator, "family": "binomial" if binomial else "gaussian",
            "data": {"outcome": "y", "arm": "z", "covariates": names}}
    seed = int(rng.integers(100))
    if "seed" in reads:
        plan["seed"] = seed
    if "learner" in reads and ("folds" in reads or rng.uniform() < 0.5):
        plan["learner"] = random_learner(rng, n)
    if "expansion" in reads and "learner" not in plan and rng.uniform() < 0.3:
        plan["expansion"] = {"polynomial_degree": 2}
    if "selection" in reads:
        plan["selection"] = {"method": ["lasso_cv", "stepwise_aic", "none"][rng.integers(3)]}
    if "folds" in reads:
        plan["folds"] = {"k": int(rng.integers(2, 6))}
    mode = rules.pi_modes[rng.integers(len(rules.pi_modes))]
    if mode is not None:
        plan["pi"] = {"mode": mode, **({"value": 0.5} if mode == "known" else {}),
                      **({"ps_columns": names[:1]} if mode == "parametric" else {})}
    flags = [name for name in ("eem", "small_sample_correction") if name in reads]
    if flags and mode != "parametric" and rng.uniform() < 0.5:
        plan[flags[rng.integers(len(flags))]] = True
    if binomial and rng.uniform() < 0.3:
        plan["contrast"] = ["risk_difference", "log_risk_ratio", "log_odds_ratio"][rng.integers(3)]
    return plan


def run_once(tmp: str, text: str, plan: dict) -> dict:
    """Run analyze on one trial and plan; the findings of the run and its exit code."""
    data, plan_path, out = (os.path.join(tmp, name) for name in ("t.csv", "p.json", "o.json"))
    with open(data, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    if os.path.exists(out):
        os.remove(out)
    err, found, caught = io.StringIO(), {}, []

    def record(message, category, filename, lineno, file=None, line=None):
        # numpy's own warnings name a numpy file: take the innermost trialcraft frame
        frame = next((f for f in reversed(traceback.extract_stack())
                      if f"{os.sep}trialcraft{os.sep}" in f.filename), None)
        site = f"{os.path.basename(frame.filename)}:{frame.lineno}" if frame else filename
        caught.append((site, message))

    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        warnings.showwarning = record
        try:
            code = main(["analyze", "--data", data, "--plan", plan_path, "--out", out])
        except Exception as exc:  # noqa: BLE001 - an escaped exception is a finding
            code = None
            found["traceback"] = f"{type(exc).__name__}: {exc}"
    if caught:
        found["warning"] = "{}: {}".format(*caught[0])
        found["sites"] = {site for site, _ in caught}
    stderr = err.getvalue()
    if stderr.count("\n") > 1:
        found["multi-line stderr"] = stderr
    if code == 0:
        with open(out, encoding="utf-8") as fh:
            estimate = json.load(fh)["estimate"]
        if estimate["theta_hat"] is None or estimate["se"] is None:
            found["null estimate at exit 0"] = f"theta_hat={estimate['theta_hat']}, se={estimate['se']}"
    found["exit"] = code
    return found


def sweep(seed: int, runs: int) -> dict:
    """Run `runs` random trials and plans drawn from `seed`. Returns the
    number of runs of each finding ("counts"), of warnings at each site
    ("sites") and of each exit code ("exits"), and the first run of each
    finding with its plan and detail ("examples")."""
    rng = np.random.default_rng(seed)
    counts, sites, exits, examples = Counter(), Counter(), Counter(), {}
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(runs):
            binomial = bool(rng.integers(2))
            text, names, n = trial_csv(rng, binomial)
            plan = random_plan(rng, binomial, names, n)
            found = run_once(tmp, text, plan)
            exits[found.pop("exit")] += 1
            sites.update(found.pop("sites", ()))
            for what, detail in found.items():
                counts[what] += 1
                examples.setdefault(what, (run, plan, detail))
    return {"counts": counts, "sites": sites, "exits": exits, "examples": examples}


def main_sweep(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--runs", type=int, default=1500)
    args = parser.parse_args(argv)
    found = sweep(args.seed, args.runs)
    counts, examples = found["counts"], found["examples"]
    exits = dict(sorted(found["exits"].items(), key=str))
    print(f"seed {args.seed}, {args.runs} runs; exit codes {exits}")
    for what in ("traceback", "warning", "multi-line stderr", "null estimate at exit 0"):
        print(f"{what}: {counts[what]} runs")
        if what in examples:
            run, plan, detail = examples[what]
            print(f"  e.g. run {run}, plan {json.dumps(plan)}\n  {detail.strip()}")
    for site, count in found["sites"].most_common():
        print(f"  warnings at {site}: {count} runs")
    return 1 if counts else 0


if __name__ == "__main__":
    raise SystemExit(main_sweep())
