"""Imbalance-aware evaluation: confusion matrices, the F1 family, per-class
precision/recall, imbalance ratio, and an RBF-kernel MMD diagnostic.

Zero-division convention: precision/recall/F1 are 0 whenever their
denominator vanishes (affects classes with no predictions or no support).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericError


def confusion(
    pred: np.ndarray,
    truth: np.ndarray,
    num_classes: int | None = None,
) -> np.ndarray:
    """The (C, C) int64 count matrix: [t, p] counts the nodes of true class
    t predicted p. Callers pass the evaluated rows only."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise DataError(
            f"pred has shape {pred.shape}, truth has shape {truth.shape}"
        )
    if num_classes is None:
        num_classes = int(max(pred.max(initial=-1), truth.max(initial=-1))) + 1
        num_classes = max(num_classes, 1)
    for name, arr in (("truth", truth), ("pred", pred)):
        check_classes(name, arr, num_classes)
    counts = np.bincount(truth * num_classes + pred,
                         minlength=num_classes * num_classes)
    return counts.astype(np.int64, copy=False).reshape(num_classes, num_classes)


def check_classes(name: str, labels: np.ndarray, num_classes: int) -> None:
    """Raise DataError unless every label lies in [0, num_classes)."""
    if np.any((labels < 0) | (labels >= num_classes)):
        raise DataError(
            f"{name} holds a class outside [0, {num_classes})"
        )


def class_scores(counts: np.ndarray):
    """Per-class (precision, recall, F1) vectors of a confusion count
    matrix: the one F1 formula. Python floats, class by class, since
    numpy's per-call cost dominates a handful of classes; each score takes
    the float64 operations of the vectorised form, in the same order."""
    rows = counts.tolist()
    support = [sum(row) for row in rows]
    if sum(support) == 0:
        raise DataError("metrics undefined for an empty confusion matrix")
    precision, recall, f1 = [], [], []
    for c, predicted in enumerate(map(sum, zip(*rows))):
        tp = float(rows[c][c])
        p = tp / float(predicted) if predicted > 0 else 0.0
        r = tp / float(support[c]) if support[c] > 0 else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(2 * p * r / (p + r) if p + r > 0 else 0.0)
    return np.array(precision), np.array(recall), np.array(f1)


def f1_scores(counts: np.ndarray, rho: float = float("nan")) -> dict:
    """Per-class P/R/F1 plus macro, support-weighted, and micro aggregates
    of a confusion count matrix: the `metrics` dict of a record, Python
    floats and ints throughout."""
    precision, recall, f1 = class_scores(counts)
    support = counts.sum(axis=1)
    accuracy = float(np.trace(counts) / counts.sum())
    return {
        "f1_macro": float(f1.mean()),
        "f1_weighted": float((f1 * support).sum() / support.sum()),
        "f1_micro": accuracy,
        "accuracy": accuracy,
        "rho": rho,
        "per_class": [
            {"class": c, "precision": float(p), "recall": float(r),
             "f1": float(f), "support": int(s)}
            for c, (p, r, f, s) in enumerate(zip(precision, recall, f1, support))
        ],
    }


def evaluate(
    pred: np.ndarray,
    truth: np.ndarray,
    num_classes: int | None = None,
) -> dict:
    """confusion + f1_scores + imbalance ratio of the truth labels, for the
    evaluated rows the caller passes."""
    counts = confusion(pred, truth, num_classes=num_classes)
    return f1_scores(counts, rho=imbalance_ratio(truth))


def imbalance_ratio(labels: np.ndarray) -> float:
    """Largest class count over smallest class count among labeled nodes."""
    labels = np.asarray(labels, dtype=np.int64)
    labels = labels[labels >= 0]
    if labels.size == 0:
        raise DataError("imbalance ratio needs at least one labeled node")
    counts = np.bincount(labels)
    counts = counts[counts > 0]
    return float(counts.max() / counts.min())


# pooled samples per row block of distances: mmd_rbf never holds the m x m
# distance matrix, only blocks of this many rows
MMD_BLOCK_ROWS = 64


def mmd_rbf(x: np.ndarray, y: np.ndarray, bandwidth="median") -> float:
    """Biased (V-statistic) RBF-kernel MMD between two sample sets.

    k(a, b) = exp(-|a-b|^2 / (2 h^2)); h defaults to the median pairwise
    Euclidean distance over the pooled samples (1.0 when that median is 0).
    Returns sqrt(max(0, MMD^2)). Non-finite samples or bandwidth raise
    NumericError; a malformed or non-positive bandwidth raises DataError.

    Precision: the distances come from the Gram identity, one gemm per
    block of MMD_BLOCK_ROWS pooled samples, so each carries an absolute
    rounding error of about eps * S^2, where S is the largest norm of the
    mean-centred pooled sample. The kernel of a pair therefore has a
    relative error of about eps * (S / h)^2. The median bandwidth grows
    with S; a fixed h far below the spread loses digits on close pairs (30
    points of scale 1e3 in 3-d at h = 0.2: MMD^2 off by 2e-11). The
    distance of a sample to itself, and between bitwise-equal samples, is
    set to exactly 0, and XX, YY and XY are each summed as a full region in
    the same block order, so mmd_rbf(x, x) is exactly 0.

    Working set: for m pooled samples, the median bandwidth takes one
    packed buffer of the m(m-1)/2 distances of distinct pairs, and each
    block holds O(MMD_BLOCK_ROWS * m) doubles, where the m x m matrix took
    about 1.5 m^2.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise DataError("sample dimensionality mismatch")
    if x.shape[1] == 0:
        raise DataError("zero-dimensional samples")
    if x.shape[0] == 0 or y.shape[0] == 0:
        raise DataError("need at least one sample on each side")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericError("MMD samples must be finite")

    pool = _pool(x, y)
    if bandwidth == "median":
        # both sides are nonempty, so there is at least one distinct pair;
        # one in-place partition yields the order statistics np.median
        # averages, whatever their order
        upper = _upper_sq_dists(pool)
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
            raise DataError(f"bandwidth must be 'median' or a number, "
                            f"got {bandwidth!r}") from None
        if not np.isfinite(h):
            raise NumericError(f"bandwidth must be finite, got {h}")
        if h <= 0:
            raise DataError("bandwidth must be positive")

    gamma = 1.0 / (2.0 * h * h)

    def kernel_sum(rows, cols):
        total = 0.0
        for start in range(rows.start, rows.stop, MMD_BLOCK_ROWS):
            block = _sq_dists(pool, slice(start, min(start + MMD_BLOCK_ROWS,
                                                     rows.stop)), cols)
            block *= -gamma
            total += float(np.exp(block, out=block).sum())
        return total

    n, m = x.shape[0], len(pool[0])
    xs, ys = slice(0, n), slice(n, m)
    kxx = kernel_sum(xs, xs) / (n * n)
    kyy = kernel_sum(ys, ys) / ((m - n) * (m - n))
    kxy = kernel_sum(xs, ys) / (n * (m - n))
    mmd2 = kxx + kyy - 2.0 * kxy
    if not np.isfinite(mmd2):  # finite samples whose distances overflow
        raise NumericError("MMD is not finite")
    return float(np.sqrt(max(0.0, mmd2)))


def _pool(x, y):
    """(left, right, labels) for the pooled samples a_i, mean-centred so that
    a shared offset stays out of the Gram identity's cancellation: the rows
    left_i = [a_i, |a_i|^2, 1] and right_i = [-2 a_i, 1, |a_i|^2], so that
    left_i . right_j = |a_i|^2 + |a_j|^2 - 2 a_i . a_j = |a_i - a_j|^2 in
    one gemm, and labels numbering the distinct samples when two are
    bitwise equal (else None)."""
    pooled = np.concatenate([x, y], axis=0)
    pooled -= pooled.mean(axis=0)
    norms = np.einsum("ij,ij->i", pooled, pooled)[:, None]
    ones = np.ones_like(norms)
    labels = None
    # distinct values in one coordinate rule out equal samples cheaply
    if np.unique(pooled[:, 0]).size < len(pooled):
        distinct, inverse = np.unique(pooled, axis=0, return_inverse=True)
        if len(distinct) < len(pooled):
            labels = inverse.ravel()
    return (np.hstack([pooled, norms, ones]), np.hstack([-2.0 * pooled, ones, norms]),
            labels)


def _sq_dists(pool, rows, cols, out=None):
    """Squared distances left[rows] . right[cols]^T between the pooled
    samples ``rows`` and ``cols`` (slices), clipped at 0, into ``out`` if
    given, and exactly 0 where a sample meets itself or a bitwise-equal
    one."""
    left, right, labels = pool
    sq = np.matmul(left[rows], right[cols].T, out=out)
    np.maximum(sq, 0.0, out=sq)
    if labels is not None:
        sq[labels[rows, None] == labels[None, cols]] = 0.0
    else:
        same = np.arange(max(rows.start, cols.start), min(rows.stop, cols.stop))
        sq[same - rows.start, same - cols.start] = 0.0
    return sq


def _upper_sq_dists(pool):
    """The m(m-1)/2 squared distances of distinct pairs of the m pooled
    samples, in one packed buffer. For each block of rows,
    the pairs within it are taken from its small square and those with
    later samples are written in place by the gemm."""
    m = len(pool[0])
    upper = np.empty(m * (m - 1) // 2)
    strict = ~np.tri(min(MMD_BLOCK_ROWS, m), dtype=bool)
    pos = 0
    for start in range(0, m, MMD_BLOCK_ROWS):
        stop = min(start + MMD_BLOCK_ROWS, m)
        rows, size = slice(start, stop), stop - start
        inner = _sq_dists(pool, rows, rows)[strict[:size, :size]]
        upper[pos : pos + inner.size] = inner
        pos += inner.size
        later = upper[pos : pos + size * (m - stop)]
        _sq_dists(pool, rows, slice(stop, m), out=later.reshape(size, m - stop))
        pos += later.size
    return upper
