"""Bias calibration: subtract the neutral reference from model outputs and
turn the corrected logits into class probabilities.

Variants: "none" (identity), "subtract" (the default correction),
"scale" (lambda * correction), and "normalize" (correction divided by the
spread of the neutral vector). Position "logits" applies the correction
before the softmax; "post_softmax" subtracts neutral probabilities from
model probabilities, clamps negatives to zero, and renormalizes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericError, check_finite, read_lines
from .training import softmax

VARIANTS = ("none", "subtract", "scale", "normalize")
POSITIONS = ("logits", "post_softmax")


@dataclass(frozen=True)
class CalibrationSpec:
    variant: str = "subtract"
    position: str = "logits"
    # scale variant only; nothing searches it: harness.LAMBDA_GRID lists the
    # ablation's values, and no lam > 0 moves an argmax from subtract's
    lam: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown calibration variant {self.variant!r}")
        if self.position not in POSITIONS:
            raise ConfigError(f"unknown calibration position {self.position!r}")
        if (self.lam is not None) != (self.variant == "scale"):
            raise ConfigError("lambda is required iff variant is 'scale'")
        if self.lam is not None:
            check_finite(self, "lam")

    @property
    def spec_id(self) -> str:
        name = f"scale({self.lam:g})" if self.variant == "scale" else self.variant
        return f"{name}@{self.position}"

    def to_dict(self) -> dict:
        d = {"variant": self.variant, "position": self.position}
        if self.lam is not None:
            d["lambda"] = self.lam
        return d


@dataclass(frozen=True)
class CalibratedOutput:
    probabilities: np.ndarray  # rows on the simplex
    predicted_labels: np.ndarray  # argmax, ties to the lowest class index
    corrected_logits: np.ndarray | None  # logits position only


def _corrected_logits(logits, neutral_vec, spec):
    if spec.variant == "none":
        return logits.copy()
    diff = logits - neutral_vec[None, :]
    if spec.variant == "subtract":
        return diff
    if spec.variant == "scale":
        return spec.lam * diff
    # normalize: population std of the C neutral entries
    sigma = float(neutral_vec.std())
    if sigma == 0.0:
        raise NumericError(
            "neutral vector has zero spread; normalize variant undefined "
            "(fall back to subtract)"
        )
    return diff / sigma


def calibrate(
    logits: np.ndarray,
    neutral_vec: np.ndarray,
    spec: CalibrationSpec,
) -> CalibratedOutput:
    """Apply one calibration variant to a logits matrix."""
    logits = np.asarray(logits, dtype=np.float64)
    neutral_vec = np.asarray(neutral_vec, dtype=np.float64)
    if logits.ndim != 2 or neutral_vec.ndim != 1:
        raise DataError("expected (n, C) logits and a length-C neutral vector")
    if logits.shape[1] != neutral_vec.shape[0]:
        raise DataError(
            f"logits have {logits.shape[1]} classes, neutral vector has "
            f"{neutral_vec.shape[0]}"
        )

    if spec.position == "logits":
        corrected = _corrected_logits(logits, neutral_vec, spec)
        probs = softmax(corrected)
    else:
        probs_in = softmax(logits)
        if spec.variant == "none":
            probs = probs_in
        else:
            neutral_probs = softmax(neutral_vec[None, :])[0]
            adjusted = _corrected_logits(probs_in, neutral_probs, spec)
            clamped = np.clip(adjusted, 0.0, None)
            row_sums = clamped.sum(axis=1)
            dead = np.flatnonzero(row_sums == 0.0)
            if dead.size:
                raise NumericError(
                    f"row {dead[0]} collapsed to zero after post-softmax clamping"
                )
            probs = clamped / row_sums[:, None]
        corrected = None

    return CalibratedOutput(
        probabilities=probs,
        predicted_labels=probs.argmax(axis=1),  # first max = lowest class index
        corrected_logits=corrected,
    )


def check_bias_reduction(
    probs_before: np.ndarray,
    probs_after: np.ndarray,
    majority_class: int,
    neutral_vec: np.ndarray,
    logits_before: np.ndarray | None = None,
    logits_after: np.ndarray | None = None,
) -> dict:
    """Diagnostic, as the ``bias`` fields of a records.jsonl row:
    majority-class mean probability before/after calibration and the
    neutral vector. When logits are supplied, also the mean per-class logit
    shift and whether the smallest-reference class gained strictly more of
    it than the largest-reference class (None without logits, or when the
    reference is flat and no ordering is claimed)."""
    probs_before = np.asarray(probs_before, dtype=np.float64)
    probs_after = np.asarray(probs_after, dtype=np.float64)
    neutral_vec = np.asarray(neutral_vec, dtype=np.float64)
    if probs_before.shape != probs_after.shape:
        raise DataError("probability matrices must cover the same nodes")
    before = float(probs_before[:, majority_class].mean())
    after = float(probs_after[:, majority_class].mean())
    delta = ordering = None
    if logits_before is not None and logits_after is not None:
        shifts = np.asarray(logits_after, float) - np.asarray(logits_before, float)
        delta = [float(x) for x in shifts.mean(axis=0)]
        lo, hi = int(neutral_vec.argmin()), int(neutral_vec.argmax())
        if neutral_vec[lo] != neutral_vec[hi]:
            ordering = delta[lo] > delta[hi]
    return {
        "majority_class": int(majority_class),
        "majority_prob_before": before,
        "majority_prob_after": after,
        "majority_prob_decreased": after < before,
        "delta_per_class": delta,
        "min_shift_exceeds_maj": ordering,
        "neutral_vector": [float(x) for x in neutral_vec],
    }


def write_predictions_csv(output: CalibratedOutput, path) -> None:
    """One row per node: node_id, predicted_label, then C probability columns."""
    c = output.probabilities.shape[1]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "predicted_label"] + [f"prob_{i}" for i in range(c)])
        for i, (label, row) in enumerate(
            zip(output.predicted_labels, output.probabilities)
        ):
            writer.writerow([i, int(label)] + [f"{p:.17g}" for p in row])


def read_predictions_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (predicted_labels, probabilities) from a file written by
    :func:`write_predictions_csv`. A fault in it raises DataError
    naming the file (and the line)."""
    rows = read_lines(path, "predictions", DataError, _prediction_row)
    rows = [row for row in rows if row is not None]
    if len({len(probs) for _, probs in rows}) > 1:
        raise DataError("rows differ in their number of probabilities",
                        file=path)
    labels = np.array([label for label, _ in rows], dtype=np.int64)
    return labels, np.array([probs for _, probs in rows], dtype=np.float64)


def _prediction_row(line):
    node_id, label, *probs = line.split(",")
    if node_id == "node_id":
        return None  # the header
    probs = [float(p) for p in probs]
    if not np.isfinite(probs).all():
        raise ValueError("non-finite probability (NaN or inf)")
    return int(label), probs
