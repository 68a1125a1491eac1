"""Imbalance-aware evaluation: confusion matrices, the F1 family, per-class
precision/recall, imbalance ratio, and an RBF-kernel MMD diagnostic.

Zero-division convention: precision/recall/F1 are 0 whenever their
denominator vanishes (affects classes with no predictions or no support).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import GraphValidationError, NumericError, ShapeError


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[t][p] = number of evaluated nodes with true class t predicted p."""

    counts: np.ndarray

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ClassScores:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    f1_macro: float
    f1_weighted: float
    f1_micro: float
    accuracy: float
    rho: float
    per_class: tuple[ClassScores, ...]

    def to_dict(self) -> dict:
        return {
            "f1_macro": self.f1_macro,
            "f1_weighted": self.f1_weighted,
            "f1_micro": self.f1_micro,
            "accuracy": self.accuracy,
            "rho": self.rho,
            "per_class": [
                {
                    "class": i,
                    "precision": s.precision,
                    "recall": s.recall,
                    "f1": s.f1,
                    "support": s.support,
                }
                for i, s in enumerate(self.per_class)
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


def confusion(
    pred: np.ndarray,
    truth: np.ndarray,
    mask: np.ndarray | None = None,
    num_classes: int | None = None,
) -> ConfusionMatrix:
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ShapeError(
            f"pred has shape {pred.shape}, truth has shape {truth.shape}"
        )
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != pred.shape:
            raise ShapeError("mask length mismatch")
        pred, truth = pred[mask], truth[mask]
    if num_classes is None:
        num_classes = int(max(pred.max(initial=-1), truth.max(initial=-1))) + 1
        num_classes = max(num_classes, 1)
    for name, arr in (("truth", truth), ("pred", pred)):
        check_classes(name, arr, num_classes)
    counts = np.bincount(truth * num_classes + pred,
                         minlength=num_classes * num_classes)
    return ConfusionMatrix(counts=counts.astype(np.int64, copy=False)
                           .reshape(num_classes, num_classes))


def check_classes(name: str, labels: np.ndarray, num_classes: int) -> None:
    """Raise GraphValidationError unless every label lies in [0, num_classes)."""
    if np.any((labels < 0) | (labels >= num_classes)):
        raise GraphValidationError(
            f"{name} holds a class outside [0, {num_classes})"
        )


def class_scores(counts: np.ndarray):
    """Per-class (precision, recall, F1) vectors of a confusion count matrix."""
    if counts.sum() == 0:
        raise GraphValidationError("metrics undefined for an empty confusion matrix")
    tp = np.diag(counts).astype(np.float64)
    support = counts.sum(axis=1).astype(np.float64)
    predicted = counts.sum(axis=0).astype(np.float64)
    zeros = np.zeros_like(tp)
    precision = np.divide(tp, predicted, out=zeros.copy(), where=predicted > 0)
    recall = np.divide(tp, support, out=zeros.copy(), where=support > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom, out=zeros, where=denom > 0)
    return precision, recall, f1


def f1_scores(cm: ConfusionMatrix, rho: float = float("nan")) -> MetricsReport:
    """Per-class P/R/F1 plus macro, support-weighted, and micro aggregates."""
    counts = cm.counts
    precision, recall, f1 = class_scores(counts)
    support = counts.sum(axis=1)
    accuracy = float(np.trace(counts) / counts.sum())
    per_class = tuple(
        ClassScores(float(p), float(r), float(f), int(s))
        for p, r, f, s in zip(precision, recall, f1, support)
    )
    return MetricsReport(
        f1_macro=float(f1.mean()),
        f1_weighted=float((f1 * support).sum() / support.sum()),
        f1_micro=accuracy,
        accuracy=accuracy,
        rho=rho,
        per_class=per_class,
    )


def evaluate(
    pred: np.ndarray,
    truth: np.ndarray,
    mask: np.ndarray | None = None,
    num_classes: int | None = None,
) -> MetricsReport:
    """confusion + f1_scores + imbalance ratio of the evaluated truth labels."""
    cm = confusion(pred, truth, mask=mask, num_classes=num_classes)
    truth_eval = np.asarray(truth)[np.asarray(mask, dtype=bool)] if mask is not None else truth
    return f1_scores(cm, rho=imbalance_ratio(truth_eval))


def imbalance_ratio(labels: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Largest class count over smallest class count among labeled nodes."""
    labels = np.asarray(labels, dtype=np.int64)
    if mask is not None:
        labels = labels[np.asarray(mask, dtype=bool)]
    labels = labels[labels >= 0]
    if labels.size == 0:
        raise GraphValidationError("imbalance ratio needs at least one labeled node")
    counts = np.bincount(labels)
    counts = counts[counts > 0]
    return float(counts.max() / counts.min())


def mmd_rbf(x: np.ndarray, y: np.ndarray, bandwidth="median") -> float:
    """Biased (V-statistic) RBF-kernel MMD between two sample sets.

    k(a, b) = exp(-|a-b|^2 / (2 h^2)); h defaults to the median pairwise
    Euclidean distance over the pooled samples (1.0 when that median is 0).
    Returns sqrt(max(0, MMD^2)). Non-finite samples or bandwidth raise
    NumericError; a malformed or non-positive bandwidth raises ShapeError.

    Precision: the distances come from the Gram identity, so each carries
    an absolute rounding error of about eps * S^2, where S is the largest
    norm of the mean-centred pooled sample. The kernel of a pair therefore
    has a relative error of about eps * (S / h)^2. The median bandwidth
    grows with S; a fixed h far below the spread loses digits on close
    pairs (30 points of scale 1e3 in 3-d at h = 0.2: MMD^2 off by 2e-11).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise ShapeError("sample dimensionality mismatch")
    if x.shape[1] == 0:
        raise ShapeError("zero-dimensional samples")
    if x.shape[0] == 0 or y.shape[0] == 0:
        raise ShapeError("need at least one sample on each side")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericError("MMD samples must be finite")

    # Pooled squared distances by the Gram identity |a|^2 + |b|^2 - 2 a.b,
    # built in place. Centring keeps a shared offset out of the cancellation;
    # taking the norms from the Gram diagonal makes the diagonal (and the
    # distance between bitwise-equal rows) exactly 0.
    n = x.shape[0]
    pooled = np.concatenate([x, y], axis=0)
    pooled -= pooled.mean(axis=0)
    sq = pooled @ pooled.T
    norms = np.diag(sq).copy()
    sq *= -2.0
    sq += norms[:, None]
    sq += norms[None, :]
    np.maximum(sq, 0.0, out=sq)

    if bandwidth == "median":
        # both sides are nonempty, so the strict upper triangle is too. It is
        # gathered row by row into one buffer; one in-place partition yields
        # the order statistics np.median averages, whatever their order.
        m = sq.shape[0]
        upper = np.empty(m * (m - 1) // 2)
        pos = 0
        for i in range(m - 1):
            upper[pos : pos + m - 1 - i] = sq[i, i + 1 :]
            pos += m - 1 - i
        mid = upper.size // 2
        upper.partition(mid)
        med = upper[mid] if upper.size % 2 else (upper[:mid].max() + upper[mid]) / 2
        h = float(np.sqrt(med))
        if h == 0.0:
            h = 1.0
    else:
        try:
            h = float(bandwidth)
        except (TypeError, ValueError):
            raise ShapeError(f"bandwidth must be 'median' or a number, "
                             f"got {bandwidth!r}") from None
        if not np.isfinite(h):
            raise NumericError(f"bandwidth must be finite, got {h}")
        if h <= 0:
            raise ShapeError("bandwidth must be positive")

    gamma = 1.0 / (2.0 * h * h)
    sq *= -gamma
    k = np.exp(sq, out=sq)
    kxx = k[:n, :n].mean()
    kyy = k[n:, n:].mean()
    kxy = k[:n, n:].mean()
    mmd2 = kxx + kyy - 2.0 * kxy
    if not np.isfinite(mmd2):  # finite samples whose distances overflow
        raise NumericError("MMD is not finite")
    return float(np.sqrt(max(0.0, mmd2)))
