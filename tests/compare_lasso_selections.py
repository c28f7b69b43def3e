"""Compare `lasso_cv` selections between two versions of trialcraft.

A check to run by hand whenever the lasso's paths or iterates change; pytest
does not collect it. It fits two fixed broad samples of 160 problems each,
and for each keeps the selected columns and `chosen_index`, or the class of
the exception raised, and its IRLS step count (the `selection._solve` calls
of its binomial path, 0 for a Gaussian problem):

- logistic: p from 1 to 20, n from max(40, 3p) to 400, columns shifted and
  rescaled, half of the problems weighted, every 4th near-separated, 3 to 5
  folds and both penalty rules;
- Gaussian: p from 1 to 60, every 4th with n < 2p (from p = 6), every 5th
  with a column that is a shifted multiple of another, columns shifted and
  rescaled, half weighted, 3 to 5 folds and both penalty rules.

    PYTHONPATH=<old checkout>/src python tests/compare_lasso_selections.py --record old.json
    PYTHONPATH=src python tests/compare_lasso_selections.py --compare old.json

`--compare` prints every problem whose result differs, then both versions'
total IRLS steps and every problem whose count rose; a recording made
without counts prints none for the old version. For each problem
that raised when recorded and returns now, it also prints the worst clipped
KKT residual (means clipped into [1e-5, 1 - 1e-5], as the binomial IRLS
takes them) of its full-data path at `lasso_cv`'s grid. It then runs the
problems that return through `lasso_cvs` in groups of 10, taken in order of
family and column count so that problems of one family and equal p share a
stack, and prints every problem whose `lasso_cvs` result is not
`==` to its lone `lasso_cv` result. It exits 1 if any other problem
differs, if such a residual exceeds 1e-6, or if a grouped result differs.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from conftest import kkt_violation
from trialcraft import selection
from trialcraft.errors import TrialcraftError
from trialcraft.glm import GlmFamily, expit
from trialcraft.selection import lasso_cv, lasso_cvs, lasso_path

N_PROBLEMS = 160
GROUP = 10
KKT_BOUND = 1e-6


def problem(seed):
    """(label, x, y, weights, k_cv, rule) of the logistic sample's problem `seed`."""
    i = seed - 90_000
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 21))
    n = int(rng.integers(max(40, 3 * p), 401))
    x = rng.standard_normal((n, p)) + 0.4 * rng.standard_normal((n, 1))
    beta = np.zeros(p)
    k = min(p, 4)
    beta[:k] = rng.uniform(0.3, 1.2, size=k) * rng.choice([-1.0, 1.0], size=k)
    separated = i % 4 == 3
    if separated:
        beta *= 3.0  # the classes overlap on only a few rows
    y = (rng.uniform(size=n) < expit(rng.uniform(-1.0, 1.0) + x @ beta)).astype(float)
    x = x * 10.0 ** rng.uniform(-3, 3, size=p) + rng.uniform(-1e3, 1e3, size=p)
    weighted = (i // 4) % 2 == 1
    weights = rng.uniform(0.2, 3.0, size=n) if weighted else None
    k_cv, rule = 3 + i % 3, ("1se", "min")[(i + i // 8) % 2]
    label = (f"seed={seed} p={p} n={n} weighted={weighted} separated={separated} "
             f"k={k_cv} rule={rule}")
    return label, x, y, weights, k_cv, rule


def gaussian_problem(seed):
    """(label, x, y, weights, k_cv, rule) of the Gaussian sample's problem `seed`."""
    i = seed - 91_000
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 61))
    wide = i % 4 == 1 and p >= 6
    n = int(rng.integers(p // 2 + 5, 2 * p) if wide else rng.integers(max(40, 3 * p), 401))
    x = rng.standard_normal((n, p)) + rng.uniform(0.0, 1.0) * rng.standard_normal((n, 1))
    copy = i % 5 == 2 and p >= 2
    if copy:
        x[:, -1] = x[:, 0]  # a shifted multiple of x0 once the columns are rescaled
    beta = np.zeros(p)
    k = min(p, 5)
    beta[:k] = rng.uniform(0.1, 1.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    y = rng.uniform(-5.0, 5.0) + x @ beta + rng.uniform(0.5, 2.0) * rng.standard_normal(n)
    x = x * 10.0 ** rng.uniform(-3, 3, size=p) + rng.uniform(-1e3, 1e3, size=p)
    weighted = (i // 4) % 2 == 1
    weights = rng.uniform(0.2, 3.0, size=n) if weighted else None
    k_cv, rule = 3 + i % 3, ("1se", "min")[(i + i // 8) % 2]
    label = (f"gaussian seed={seed} p={p} n={n} weighted={weighted} copy={copy} "
             f"k={k_cv} rule={rule}")
    return label, x, y, weights, k_cv, rule


STEPS = "irls_steps"


def record():
    """Each problem's result and IRLS step count by label, and the `lasso_cv`
    keyword arguments and result of each problem that returned: label ->
    (kwargs, result)."""
    out, returned, steps, solve = {}, {}, [0], selection._solve

    def counted(*args):
        steps[0] += 1
        return solve(*args)

    selection._solve = counted
    sample = [(seed, problem, GlmFamily.BINOMIAL) for seed in range(90_000, 90_000 + N_PROBLEMS)]
    sample += [(seed, gaussian_problem, GlmFamily.GAUSSIAN)
               for seed in range(91_000, 91_000 + N_PROBLEMS)]
    for seed, make, family in sample:
        label, x, y, weights, k_cv, rule = make(seed)
        kwargs = dict(x=x, y=y, family=family, k_cv=k_cv, seed=seed, weights=weights,
                      lambda_rule=rule)
        start, steps[0] = time.perf_counter(), 0
        try:
            res = lasso_cv(**kwargs)
            out[label] = {"selected_columns": list(res.selected_columns),
                          "chosen_index": res.path_diagnostics.get("chosen_index")}
            returned[label] = (kwargs, res)
        except TrialcraftError as exc:
            out[label] = {"error": type(exc).__name__}
        out[label][STEPS] = steps[0]
        print(f"{time.perf_counter() - start:7.2f} s  {label}  {out[label]}", file=sys.stderr)
    selection._solve = solve
    return out, returned


def without_steps(result):
    """A recorded result without its IRLS step count, or None."""
    return None if result is None else {k: v for k, v in result.items() if k != STEPS}


def step_counts(results, old):
    """Print both versions' total IRLS steps and each problem whose count rose."""
    counted = [label for label in results if STEPS in old.get(label, {})]
    new_total = sum(result[STEPS] for result in results.values())
    if not counted:
        print(f"IRLS steps: old not recorded, new {new_total}")
        return
    fewer = sum(results[label][STEPS] < old[label][STEPS] for label in counted)
    rose = [label for label in counted if results[label][STEPS] > old[label][STEPS]]
    print(f"IRLS steps: old {sum(old[label][STEPS] for label in counted)}, new {new_total}; "
          f"{fewer} problems took fewer, {len(rose)} more")
    for label in rose:
        print(f"{label}\n  IRLS steps rose: {old[label][STEPS]} -> {results[label][STEPS]}")


def grouped_differences(returned):
    """Labels of the returned problems whose `lasso_cvs` result, in groups of
    GROUP ordered by family and column count, differs from their lone one."""
    labels = sorted(returned, key=lambda label: (returned[label][0]["family"].value,
                                                 returned[label][0]["x"].shape[1]))
    differ = []
    for i in range(0, len(labels), GROUP):
        group = labels[i:i + GROUP]
        results = lasso_cvs([returned[label][0] for label in group])
        differ += [label for label, res in zip(group, results) if res != returned[label][1]]
    return differ


def worst_kkt(kwargs, res):
    """The largest clipped KKT residual of the full-data path of the problem
    `kwargs` at the grid of its `lasso_cv` result `res`."""
    x, y, family, weights = (kwargs[name] for name in ("x", "y", "family", "weights"))
    lambdas = np.array(res.path_diagnostics["lambdas"])
    coefs, _ = lasso_path(x, y, family, lambdas, weights)
    return max(kkt_violation(x, y, family, lam, coef, weights, clip=1e-5)
               for lam, coef in zip(lambdas, coefs))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", type=Path, help="write this version's results here")
    mode.add_argument("--compare", type=Path, help="compare this version's results with these")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    results, returned = record()
    elapsed = time.perf_counter() - start
    if args.record:
        args.record.write_text(json.dumps(results, indent=1) + "\n")
        print(f"recorded {len(results)} problems in {elapsed:.1f} s")
        return 0
    old = json.loads(args.compare.read_text())
    differ = [label for label in results
              if without_steps(results[label]) != without_steps(old.get(label))]
    failed = 0
    for label in differ:
        print(f"{label}\n  old {old.get(label)}\n  new {results[label]}")
        if "error" in old.get(label, {}) and label in returned:
            worst = worst_kkt(*returned[label])
            failed += worst > KKT_BOUND
            print(f"  returns now: worst clipped KKT residual {worst:.2e} (bound {KKT_BOUND:g})")
        else:
            failed += 1
    print(f"{len(results) - len(differ)} of {len(results)} match ({elapsed:.1f} s)")
    step_counts(results, old)
    grouped = grouped_differences(returned)
    for label in grouped:
        print(f"{label}\n  lasso_cvs in a group differs from lasso_cv alone")
    print(f"{len(returned) - len(grouped)} of {len(returned)} returned problems get their lone "
          f"result from lasso_cvs in groups of {GROUP}")
    return 1 if failed or grouped else 0


if __name__ == "__main__":
    sys.exit(main())
