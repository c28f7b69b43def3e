"""Command-line front door.

    trialcraft analyze  --data trial.csv --plan plan.json --out report.json
    trialcraft simulate --spec sim.json --out report.json
    trialcraft validate --plan plan.json

Reports are canonical JSON (sorted keys, fixed layout), so identical
invocations produce byte-identical files. Exit codes: 0 success, 2 config
error, 3 data error, 4 estimation error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .data import impute_missing, ingest_csv
from .errors import ConfigError, DataError, EstimationError, TrialcraftError
from .plans import (
    SCHEMA_VERSION,
    execute_plan,
    plan_estimator,
    plan_from_dict,
    plan_hash,
    plan_to_dict,
    simulation_spec_from_dict,
    validate_plan,
)
from .simulation import run_monte_carlo

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ESTIMATION = 4


def _jsonable(value):
    """Drop non-serializable diagnostics (arrays); keep scalars and trees.
    NaN and infinite floats become None, so every report is valid JSON."""
    if isinstance(value, dict):
        return {
            str(k): _jsonable(v)
            for k, v in value.items()
            if not isinstance(v, np.ndarray)
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _open_out(path: str, what: str, **kwargs):
    try:
        return open(path, "w", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {what} {path}: {exc.strerror}") from None


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    with _open_out(path, "report") as fh:
        fh.write(text)


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc.strerror}") from None
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError from bytes not UTF-8
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from None


def cmd_analyze(args) -> int:
    plan = plan_from_dict(_load_json(args.plan, "plan"))
    if plan.data is None:
        raise ConfigError("plan.data: required for analyze (outcome/arm/covariates)")
    dataset = ingest_csv(args.data, plan.data.outcome, plan.data.arm, plan.data.covariates)
    dataset = impute_missing(dataset)
    result = execute_plan(dataset, plan)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "n": dataset.n,
        "n_treated": dataset.n_treated,
        "n_control": dataset.n_control,
        "estimate": asdict(result),  # _jsonable drops its arrays
        "plan": plan_to_dict(plan),
        "plan_sha256": plan_hash(plan),
    }
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_simulate(args) -> int:
    dgp, plan, run = simulation_spec_from_dict(_load_json(args.spec, "spec"))
    csv_path = run.pop("per_replicate_csv")
    report = run_monte_carlo(dgp, plan_estimator(plan), **run)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "dgp": asdict(dgp),
        "plan": plan_to_dict(plan),
        "plan_sha256": plan_hash(plan),
        **run,
        "report": asdict(report),  # _jsonable drops its arrays
    }
    _write_json(args.out, payload)
    if csv_path:
        with _open_out(csv_path, "per-replicate CSV", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["replicate", "seed", "estimate", "se"])
            for r in range(report.replicates):
                writer.writerow(
                    [r, report.replicate_seeds[r],
                     repr(float(report.estimates[r])), repr(float(report.ses[r]))]
                )
    return EXIT_OK


def cmd_validate(args) -> int:
    plan = plan_from_dict(_load_json(args.plan, "plan"))
    warnings = validate_plan(plan)
    print(json.dumps({"ok": True, "plan_sha256": plan_hash(plan), "warnings": warnings},
                     sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trialcraft",
        description="Covariate-adjusted marginal treatment effect estimation "
        "and Monte Carlo verification for randomized trials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a trial CSV under a pre-specified plan")
    analyze.add_argument("--data", required=True, help="trial dataset (CSV with header)")
    analyze.add_argument("--plan", required=True, help="analysis plan (JSON)")
    analyze.add_argument("--out", required=True, help="output report path (JSON)")
    analyze.set_defaults(func=cmd_analyze)

    simulate = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    simulate.add_argument("--spec", required=True, help="simulation spec (JSON)")
    simulate.add_argument("--out", required=True, help="output report path (JSON)")
    simulate.set_defaults(func=cmd_simulate)

    validate = sub.add_parser("validate", help="check a plan for consistency")
    validate.add_argument("--plan", required=True, help="analysis plan (JSON)")
    validate.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except TrialcraftError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
