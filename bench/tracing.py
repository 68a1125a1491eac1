"""Spans around the calls into each neubm layer, recorded from outside the
package.

`installed(tracer)` rebinds the names that `neubm.cli`, `neubm.harness` and
`neubm.training` look up at call time, so every call to a hooked layer
records a span (name, start, end, parent span, run id). Spans stay in memory;
the caller writes them out when the run ends. A hook whose target no longer
exists, or a hooked layer that a run never calls, raises `HookError` naming
it: a traced run never reports a zero for a layer it could not see.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


class HookError(RuntimeError):
    """A hook target is missing, or a hooked layer was never called."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


def _eval_mode(args, kwargs) -> bool:
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "eval")
    return mode == "eval"


def _nbytes(obj) -> int:
    """Bytes held in the arrays reachable from an operator object."""
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x) for x in obj)
    if hasattr(obj, "__dict__"):
        return sum(_nbytes(x) for x in vars(obj).values())
    return 0


def _observe_operator(tracer, args, kwargs, result):
    tracer.observed["operator_bytes"].append(_nbytes(result))


def _observe_train(tracer, args, kwargs, result):
    _, report = result
    tracer.observed["epochs"].append(report.epochs_run)
    tracer.observed["best_epoch"].append(report.best_epoch)


def _observe_neutral(tracer, args, kwargs, result):
    stats = args[0] if args else kwargs["stats"]
    graph = result.graph
    pairs = graph.num_nodes * (graph.num_nodes - 1) / 2
    tracer.observed["density_ratio"].append(graph.num_edges / pairs / stats.d_bar)


# (module, attribute looked up at call time, span name, observer, filter)
HOOKS = (
    ("neubm.cli", "run_experiment", "harness", None, None),
    ("neubm.cli", "run_ablations", "harness", None, None),
    ("neubm.harness", "generate_sbm", "datasets.generate_sbm", None, None),
    ("neubm.harness", "compute_dataset_stats", "graph.compute_dataset_stats",
     None, None),
    ("neubm.harness", "train", "training.train", _observe_train, None),
    ("neubm.harness", "construct_neutral", "neutral.construct_neutral",
     _observe_neutral, None),
    ("neubm.harness", "neutral_logit_vector", "neutral.neutral_logit_vector",
     None, None),
    ("neubm.harness", "calibrate", "calibrate.calibrate", None, None),
    ("neubm.harness", "check_bias_reduction", "calibrate.check_bias_reduction",
     None, None),
    ("neubm.harness", "evaluate", "metrics.evaluate", None, None),
    ("neubm.harness", "mmd_rbf", "metrics.mmd_rbf", None, None),
    ("neubm.training", "prepare_operator", "models.prepare_operator",
     _observe_operator, None),
    ("neubm.training", "loss_and_gradients", "training.loss_and_gradients",
     None, None),
    # training-mode forwards run inside loss_and_gradients; only the
    # validation (eval) forwards get a span of their own
    ("neubm.training", "forward_with_operator", "models.forward", None,
     _eval_mode),
)
ROOT_SPAN = "cli"
SPAN_NAMES = (ROOT_SPAN,) + tuple(dict.fromkeys(h[2] for h in HOOKS))

# per-layer metric -> unit
LAYER_UNITS = {
    "datasets.generate_sbm.s": "s",
    "graph.compute_dataset_stats.ms": "ms",
    "models.prepare_operator.ms": "ms",
    "models.operator_bytes": "bytes",
    "models.forward.ms": "ms",
    "models.forward.calls": "count",
    "training.loss_and_gradients.ms": "ms",
    "training.train.self_s": "s",
    "training.epochs": "count",
    "training.useful_epoch_frac": "ratio",
    "neutral.construct_neutral.ms": "ms",
    "neutral.construct_neutral.calls": "count",
    "neutral.density_ratio": "ratio",
    "neutral.neutral_logit_vector.ms": "ms",
    "calibrate.calibrate.ms": "ms",
    "calibrate.check_bias_reduction.ms": "ms",
    "metrics.evaluate.ms": "ms",
    "metrics.mmd_rbf.s": "s",
    "metrics.mmd_rbf.calls": "count",
    "harness.self_s": "s",
    "cli.self_s": "s",
}
# Counts that must repeat exactly across traced runs of the same code.
EXACT_COUNTS = (
    "models.operator_bytes",
    "models.forward.calls",
    "training.epochs",
    "training.useful_epoch_frac",
    "metrics.mmd_rbf.calls",
    "neutral.construct_neutral.calls",
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.observed: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), float("nan"),
                    parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def wrap(self, name, fn, observe=None, when=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def layer_seconds(self) -> tuple[dict, dict, Counter]:
        """Inclusive seconds, self seconds and call count per span name."""
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for s in self.spans:
            d = s.end - s.start
            total[s.name] += d
            own[s.name] += d
            calls[s.name] += 1
            if s.parent is not None:
                own[self.spans[s.parent].name] -= d
        return dict(total), dict(own), calls

    def layer_metrics(self) -> dict:
        total, own, calls = self.layer_seconds()
        never = [name for name in SPAN_NAMES if calls[name] == 0]
        if never:
            raise HookError(f"hooked layers never called: {', '.join(never)}")

        def ms(name):
            return total[name] / calls[name] * 1e3

        epochs = sum(self.observed["epochs"])
        return {
            "datasets.generate_sbm.s": total["datasets.generate_sbm"],
            "graph.compute_dataset_stats.ms": ms("graph.compute_dataset_stats"),
            "models.prepare_operator.ms": ms("models.prepare_operator"),
            "models.operator_bytes": max(self.observed["operator_bytes"]),
            "models.forward.ms": ms("models.forward"),
            "models.forward.calls": calls["models.forward"],
            "training.loss_and_gradients.ms": ms("training.loss_and_gradients"),
            "training.train.self_s": own["training.train"],
            "training.epochs": epochs,
            "training.useful_epoch_frac": sum(self.observed["best_epoch"]) / epochs,
            "neutral.construct_neutral.ms": ms("neutral.construct_neutral"),
            "neutral.construct_neutral.calls": calls["neutral.construct_neutral"],
            "neutral.density_ratio": (sum(self.observed["density_ratio"])
                                      / len(self.observed["density_ratio"])),
            "neutral.neutral_logit_vector.ms": ms("neutral.neutral_logit_vector"),
            "calibrate.calibrate.ms": ms("calibrate.calibrate"),
            "calibrate.check_bias_reduction.ms": ms("calibrate.check_bias_reduction"),
            "metrics.evaluate.ms": ms("metrics.evaluate"),
            "metrics.mmd_rbf.s": total["metrics.mmd_rbf"],
            "metrics.mmd_rbf.calls": calls["metrics.mmd_rbf"],
            "harness.self_s": own["harness"],
            "cli.self_s": own[ROOT_SPAN],
        }


@contextmanager
def installed(tracer: Tracer | None):
    """Rebind every hook target to a traced wrapper; restore on exit."""
    if tracer is None:
        yield
        return
    originals = []
    try:
        for module_name, attr, name, observe, when in HOOKS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise HookError(f"hook target {module_name}.{attr} no longer exists")
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, observe, when))
        yield
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
