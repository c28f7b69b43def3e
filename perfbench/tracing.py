"""Spans around the calls into each trialcraft module, recorded from outside.

`Tracer.install` replaces every public function of each layer module with
a timing wrapper, wherever the program looks the function up: in its own
module and in every trialcraft module that imported the name (`fit_ml` in
estimators, learners and selection, for example). The `train` and
`predict` methods of the learner and predictor classes are wrapped the same
way. `cli` is traced at `main` only: the `cmd_*` handlers are its internal
dispatch, and their JSON serialisation and file writes belong to the
`cli.main` self time.

Each span records its name, parent, start and end; spans stay in memory
until `uninstall`, and `layer_metrics` turns them into per-estimate numbers.
Self time is the span's duration minus the part of it that child spans
cover.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "plans", "simulation", "data", "estimators", "selection",
          "learners", "glm", "variance")
LEARNER_METHODS = ("train", "predict")

ESTIMATORS = ("unadjusted", "data_adaptive", "tmle", "crossfit_aipw", "cvtmle",
              "strong_null", "crossfit_aipw_parametric_ps")
# simulation work other than data generation: the Monte Carlo harness
HARNESS = ("simulation.run_monte_carlo", "simulation.compute_metrics",
           "simulation.replicate_seed_sequences", "simulation.true_theta")

# (name, unit, better); every value is per completed estimate unless noted
PER_LAYER = (
    ("simulation.generate_dataset.ms", "ms", "lower"),
    ("simulation.harness.self_ms", "ms", "lower"),
    ("simulation.cpu_per_wall", "s/s", "higher"),
    ("plans.execute_plan.self_ms", "ms", "lower"),
    ("data.make_folds.ms", "ms", "lower"),
    ("data.make_folds.calls", "count", "lower"),
    ("data.ingest_csv.ms", "ms", "lower"),
    ("data.impute_missing.ms", "ms", "lower"),
    ("data.expand_features.ms", "ms", "lower"),
    ("selection.lasso_cv.self_ms", "ms", "lower"),
    ("selection.lasso_cv.calls", "count", "lower"),
    ("selection.lasso_path.self_ms", "ms", "lower"),
    ("selection.path_points", "count", "lower"),
    ("selection.stepwise_aic.self_ms", "ms", "lower"),
    ("selection.stepwise_aic.calls", "count", "lower"),
    ("selection.post_selection_refit.self_ms", "ms", "lower"),
    ("learners.train.self_ms", "ms", "lower"),
    ("learners.train.calls", "count", "lower"),
    ("learners.predict.ms", "ms", "lower"),
    ("glm.fit_ml.self_ms", "ms", "lower"),
    ("glm.fit_ml_design.self_ms", "ms", "lower"),
    ("glm.fit_ml.calls", "count", "lower"),
    ("glm.irls_iterations", "count", "lower"),
    ("glm.predict.ms", "ms", "lower"),
    *((f"estimators.{name}.ms", "ms", "lower") for name in ESTIMATORS),
    ("estimators.self_ms", "ms", "lower"),
    ("estimators.tmle_update.ms", "ms", "lower"),
    ("estimators.transform_contrast.ms", "ms", "lower"),
    ("variance.self_ms", "ms", "lower"),
    ("variance.calls", "count", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    # traced over untraced wall time on the same rounds; not per estimate
    ("trace.slowdown", "ratio", "lower"),
)


def _count_path_points(bound, result, counters):
    """lasso_cv solves len(lambdas) points on each of its k_cv folds and on
    the full data."""
    lambdas = (result.path_diagnostics or {}).get("lambdas", [])
    counters["selection.path_points"] += (bound.arguments["k_cv"] + 1) * len(lambdas)


def _count_irls_iterations(bound, result, counters):
    # every IRLS fit runs through fit_ml_design exactly once
    counters["glm.irls_iterations"] += result.iterations


RETURN_HOOKS = {
    "selection.lasso_cv": _count_path_points,
    "glm.fit_ml_design": _count_irls_iterations,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id or -1, name, start, end)
        self.counters = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        spans, ids, counters = self.spans, self._ids, self.counters
        owner = self._owner_stack
        hook = RETURN_HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's outermost span hangs under the span that
            # is waiting for it in the thread that installed the tracer
            parents = stack or owner
            parent = parents[-1] if parents else -1
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound, result, counters)
            return result

        return traced

    def _replace(self, holder, attr, new):
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "trialcraft" or name.startswith("trialcraft."))]
        for layer in LAYERS:
            module = sys.modules[f"trialcraft.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (not inspect.isfunction(fn) or fn.__module__ != module.__name__
                        or attr.startswith("_") or (layer == "cli" and attr != "main")):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            self._replace(holder, held, traced)
        learners = sys.modules["trialcraft.learners"]
        for cls in list(vars(learners).values()):
            if not inspect.isclass(cls) or cls.__module__ != learners.__name__:
                continue
            for method in LEARNER_METHODS:
                if inspect.isfunction(cls.__dict__.get(method)):
                    self._replace(cls, method, self._wrap(f"learners.{method}", cls.__dict__[method]))

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(tracer: Tracer, estimates: int) -> dict:
    """Per-estimate layer metrics from the recorded spans, in milliseconds
    (`*.ms` inclusive of child spans, `*.self_ms` exclusive of them) and
    counts. Nested spans of one name count once in its inclusive time."""
    by_id = {sid: (parent, name) for sid, parent, name, _, _ in tracer.spans}
    children = defaultdict(list)
    for _, parent, _, start, end in tracer.spans:
        if parent >= 0:
            children[parent].append((start, end))

    inclusive = Counter()
    self_time = Counter()
    calls = Counter()
    for sid, parent, name, start, end in tracer.spans:
        calls[name] += 1
        self_time[name] += (end - start) - _covered(children.get(sid, ()))
        ancestor = parent
        while ancestor >= 0 and by_id[ancestor][1] != name:
            ancestor = by_id[ancestor][0]
        if ancestor < 0:
            inclusive[name] += end - start

    def layer_sum(counter, layer):
        return sum(v for k, v in counter.items() if k.startswith(layer + "."))

    per_ms = 1000.0 / estimates
    m = {
        "simulation.generate_dataset.ms": inclusive["simulation.generate_dataset"] * per_ms,
        "simulation.harness.self_ms": sum(self_time[n] for n in HARNESS) * per_ms,
        "plans.execute_plan.self_ms": self_time["plans.execute_plan"] * per_ms,
        "data.make_folds.ms": inclusive["data.make_folds"] * per_ms,
        "data.make_folds.calls": calls["data.make_folds"] / estimates,
        "data.ingest_csv.ms": inclusive["data.ingest_csv"] * per_ms,
        "data.impute_missing.ms": inclusive["data.impute_missing"] * per_ms,
        "data.expand_features.ms": inclusive["data.expand_features"] * per_ms,
        "selection.lasso_cv.self_ms": self_time["selection.lasso_cv"] * per_ms,
        "selection.lasso_cv.calls": calls["selection.lasso_cv"] / estimates,
        "selection.lasso_path.self_ms": self_time["selection.lasso_path"] * per_ms,
        "selection.path_points": tracer.counters["selection.path_points"] / estimates,
        "selection.stepwise_aic.self_ms": self_time["selection.stepwise_aic"] * per_ms,
        "selection.stepwise_aic.calls": calls["selection.stepwise_aic"] / estimates,
        "selection.post_selection_refit.self_ms":
            self_time["selection.post_selection_refit"] * per_ms,
        "learners.train.self_ms": self_time["learners.train"] * per_ms,
        "learners.train.calls": calls["learners.train"] / estimates,
        "learners.predict.ms": inclusive["learners.predict"] * per_ms,
        "glm.fit_ml.self_ms": self_time["glm.fit_ml"] * per_ms,
        "glm.fit_ml_design.self_ms": self_time["glm.fit_ml_design"] * per_ms,
        "glm.fit_ml.calls": calls["glm.fit_ml"] / estimates,
        "glm.irls_iterations": tracer.counters["glm.irls_iterations"] / estimates,
        "glm.predict.ms": inclusive["glm.predict"] * per_ms,
        "estimators.self_ms": layer_sum(self_time, "estimators") * per_ms,
        "estimators.tmle_update.ms": inclusive["estimators.tmle_update"] * per_ms,
        "estimators.transform_contrast.ms": inclusive["estimators.transform_contrast"] * per_ms,
        "variance.self_ms": layer_sum(self_time, "variance") * per_ms,
        "variance.calls": layer_sum(calls, "variance") / estimates,
        "cli.main.self_ms": self_time["cli.main"] * per_ms,
    }
    for name in ESTIMATORS:
        m[f"estimators.{name}.ms"] = inclusive[f"estimators.estimate_{name}"] * per_ms
    return m
