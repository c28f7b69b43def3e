"""Compare binomial `lasso_cv` selections between two versions of trialcraft.

A check to run by hand whenever the binomial lasso's iterates change; pytest
does not collect it. It fits a fixed broad sample of 160 logistic lasso
problems: p from 1 to 20, n from max(40, 3p) to 400, columns shifted and
rescaled, half of the problems weighted, every 4th near-separated, 3 to 5
folds and both penalty rules. For each it keeps the selected columns and
`chosen_index`, or the class of the exception raised.

    PYTHONPATH=<old checkout>/src python tests/compare_lasso_selections.py --record old.json
    PYTHONPATH=src python tests/compare_lasso_selections.py --compare old.json

`--compare` prints every problem whose result differs and exits 1 if any
does.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from trialcraft.errors import TrialcraftError
from trialcraft.glm import GlmFamily, expit
from trialcraft.selection import lasso_cv

N_PROBLEMS = 160


def problem(seed):
    """(label, x, y, weights, k_cv, rule) of the sample's problem `seed`."""
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


def record():
    out = {}
    for seed in range(90_000, 90_000 + N_PROBLEMS):
        label, x, y, weights, k_cv, rule = problem(seed)
        start = time.perf_counter()
        try:
            res = lasso_cv(x, y, GlmFamily.BINOMIAL, k_cv=k_cv, seed=seed, weights=weights,
                           lambda_rule=rule)
            out[label] = {"selected_columns": list(res.selected_columns),
                          "chosen_index": res.path_diagnostics.get("chosen_index")}
        except TrialcraftError as exc:
            out[label] = {"error": type(exc).__name__}
        print(f"{time.perf_counter() - start:7.2f} s  {label}  {out[label]}", file=sys.stderr)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", type=Path, help="write this version's results here")
    mode.add_argument("--compare", type=Path, help="compare this version's results with these")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    results = record()
    elapsed = time.perf_counter() - start
    if args.record:
        args.record.write_text(json.dumps(results, indent=1) + "\n")
        print(f"recorded {len(results)} problems in {elapsed:.1f} s")
        return 0
    old = json.loads(args.compare.read_text())
    differ = [label for label in results if results[label] != old.get(label)]
    for label in differ:
        print(f"{label}\n  old {old.get(label)}\n  new {results[label]}")
    print(f"{len(results) - len(differ)} of {len(results)} match ({elapsed:.1f} s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
