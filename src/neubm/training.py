"""Loss, analytic gradients, Adam, and the full-batch training loop with
validation-driven early stopping.

Gradients are computed by hand-written backpropagation through the model
passes in :mod:`neubm.models`; the test suite checks them against central
finite differences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    EmptyScopeError,
    NumericError,
    ShapeError,
    TrainingFailureError,
)
from .graph import Graph
from .metrics import check_classes, class_scores
from .models import (
    ModelConfig,
    ModelParams,
    backward_with_operator,
    forward_with_operator,
    init_params,
    prepare_operator,
    row_view,
)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.005
    weight_decay: float = 5e-4
    max_epochs: int = 500
    patience: int = 100
    selection_metric: str = "f1_macro"
    seed: int = 0

    def __post_init__(self):
        if self.patience > self.max_epochs:
            raise ConfigError("patience must be <= max_epochs")
        if self.selection_metric != "f1_macro":
            raise ConfigError("only f1_macro selection is supported")


@dataclass(frozen=True)
class TrainReport:
    epochs_run: int
    best_epoch: int
    loss_curve: tuple[float, ...]
    val_metric_curve: tuple[float, ...]  # index 0 is the pre-training evaluation
    wall_time_seconds: float


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
    weight_decay: float = 0.0,
    params: ModelParams | None = None,
) -> float:
    """Mean negative log-likelihood over masked nodes + L2 penalty.

    The penalty is weight_decay * |params|^2 / 2 over the flat parameter
    vector; log-probabilities go through a shifted log-sum-exp so huge
    logits cannot overflow.
    """
    mask = np.asarray(mask, dtype=bool)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise EmptyScopeError("loss needs a nonempty mask")
    lp = log_softmax(logits[idx])
    nll = -lp[np.arange(idx.size), np.asarray(labels)[idx]].mean()
    if weight_decay != 0.0:
        if params is None:
            raise ConfigError("weight_decay > 0 requires params")
        flat = params.flat()
        nll += weight_decay * float(flat @ flat) / 2.0
    return float(nll)


def loss_and_gradients(
    params: ModelParams,
    graph: Graph,
    labels: np.ndarray,
    mask: np.ndarray,
    weight_decay: float = 0.0,
    mode: str = "eval",
    dropout_seed: int = 0,
    operator=None,
    hidden=None,
) -> tuple[float, np.ndarray]:
    """One forward/backward pass; returns (loss, flat gradient).

    ``operator`` is the row view (:func:`neubm.models.row_view`) of the
    mask's nodes, built from ``graph`` when omitted: only the logits the
    loss reads are computed. ``hidden`` is the layer-1 state of an earlier
    forward with the same params on the same graph (see
    :func:`neubm.models.forward_with_operator`); None recomputes it. The
    loss equals :func:`cross_entropy_loss` and dlogits ``softmax`` minus the
    one-hot labels, from one shifted exponential.
    """
    mask = np.asarray(mask, dtype=bool)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise EmptyScopeError("loss needs a nonempty mask")
    if operator is None:
        operator = row_view(prepare_operator(graph, params.config), idx)

    logits, cache = forward_with_operator(
        params, operator, graph.features, mode=mode, dropout_seed=dropout_seed,
        hidden=hidden,
    )
    if logits.shape[0] != idx.size:
        raise ShapeError(
            f"operator gives {logits.shape[0]} rows, the mask selects {idx.size}"
        )
    picked = np.arange(idx.size), np.asarray(labels)[idx]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=1, keepdims=True)
    loss = -(shifted[picked] - np.log(sums[:, 0])).mean()
    flat = params.flat()
    if weight_decay != 0.0:
        loss += weight_decay * float(flat @ flat) / 2.0

    dlogits = exps
    dlogits /= sums
    dlogits[picked] -= 1.0
    dlogits /= idx.size

    grads = backward_with_operator(params, operator, graph.features, dlogits, cache)
    grad = np.concatenate([g.ravel() for g in grads])
    if not np.all(np.isfinite(grad)):
        name = next(name for name, g in zip(_array_names(params), grads)
                    if not np.all(np.isfinite(g)))
        raise NumericError(f"non-finite gradient in {name}")
    if weight_decay != 0.0:
        grad += weight_decay * flat
    return float(loss), grad


def _array_names(params: ModelParams):
    if params.config.architecture == "gcn":
        return ["W0", "W1"]
    names = []
    for i in range(params.config.num_heads):
        names += [f"head{i}.W", f"head{i}.a_src", f"head{i}.a_dst"]
    names += ["out.W", "out.a_src", "out.a_dst"]
    return names


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(m=np.zeros(size), v=np.zeros(size))


def adam_step(
    state: AdamState,
    flat_params: np.ndarray,
    grads: np.ndarray,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> tuple[np.ndarray, AdamState]:
    """Standard bias-corrected Adam update on flat vectors."""
    if flat_params.shape != grads.shape:
        raise NumericError("parameter/gradient shape mismatch")
    b1, b2 = betas
    t = state.t + 1
    m = b1 * state.m + (1 - b1) * grads
    v = b2 * state.v + (1 - b2) * grads * grads
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    new_params = flat_params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_params, AdamState(m=m, v=v, t=t)


# ---------------------------------------------------------------------------
# training loop


def train(
    graph: Graph,
    split,
    model_config: ModelConfig,
    train_config: TrainConfig,
    val_logits_transform=None,
) -> tuple[ModelParams, TrainReport]:
    """Full-batch training with early stopping on validation F1-macro.

    Returns the parameters of the best-validation epoch. An initial
    evaluation at epoch 0 seeds the best checkpoint; training stops once
    ``epoch - best_epoch >= patience`` or at max_epochs. The optional
    val_logits_transform(epoch, params, logits) hook lets the caller adjust
    logits before the selection metric is computed (used for calibrated
    selection with a periodically refreshed reference). Training computes
    logits only for the rows it reads: the hook receives the (n_val, C)
    logits of the validation nodes in node order, not all n rows.

    The validation forward after epoch e and the training step of epoch
    e + 1 read the same parameters, so each step takes layer 1 from that
    forward's cache as ``hidden`` (see
    :func:`neubm.models.forward_with_operator`) instead of recomputing it;
    the results are bit-identical to recomputing it every step.
    """
    from .datasets import apply_split  # local import to avoid a cycle

    if graph.labels is None:
        raise ConfigError("training requires labels")
    g = apply_split(graph, split) if split is not None else graph
    train_mask = g.mask("train")
    labels = g.labels
    val_idx = np.flatnonzero(g.mask("val"))
    num_classes = model_config.num_classes
    val_labels = np.asarray(labels[val_idx], dtype=np.int64)
    check_classes("truth", val_labels, num_classes)
    val_codes = val_labels * num_classes  # confusion cell of (truth, pred 0)

    operator = prepare_operator(g, model_config)
    train_view = row_view(operator, np.flatnonzero(train_mask))
    val_view = row_view(operator, val_idx)
    params = init_params(model_config)
    flat = params.flat()
    state = AdamState.zeros(flat.size)

    def val_f1(p: ModelParams, epoch: int):
        """Validation F1 of p and the layer-1 state of its forward."""
        logits, cache = forward_with_operator(p, val_view, g.features, mode="eval")
        if val_logits_transform is not None:
            logits = val_logits_transform(epoch, p, logits)
        pred = logits.argmax(axis=1)  # argmax ties resolve to the lowest index
        counts = np.bincount(val_codes + pred, minlength=num_classes**2)
        f1 = class_scores(counts.reshape(num_classes, num_classes))[2]
        return float(f1.mean()), cache[0]

    start = time.perf_counter()
    best_metric, hidden = val_f1(params, 0)
    best_epoch = 0
    best = current = params
    loss_curve: list[float] = []
    val_curve: list[float] = [best_metric]

    epoch = 0
    for epoch in range(1, train_config.max_epochs + 1):
        try:
            loss, grad = loss_and_gradients(
                current, g, labels, train_mask,
                weight_decay=train_config.weight_decay,
                mode="train",
                dropout_seed=train_config.seed * 1_000_003 + epoch,
                operator=train_view,
                hidden=hidden,
            )
            if not np.isfinite(loss):
                raise NumericError("non-finite loss")
            flat, state = adam_step(state, flat, grad, train_config.learning_rate)
            # validated once: validation now and the next epoch's loss read it
            current = params.from_flat(flat)
            metric, hidden = val_f1(current, epoch)
        except NumericError as exc:
            raise TrainingFailureError(
                f"training diverged at epoch {epoch}: {exc}", epoch=epoch
            ) from exc
        loss_curve.append(loss)
        val_curve.append(metric)
        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best = current
        if epoch - best_epoch >= train_config.patience:
            break

    report = TrainReport(
        epochs_run=epoch,
        best_epoch=best_epoch,
        loss_curve=tuple(loss_curve),
        val_metric_curve=tuple(val_curve),
        wall_time_seconds=time.perf_counter() - start,
    )
    return best, report
