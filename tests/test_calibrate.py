import numpy as np
import pytest

from neubm.calibrate import (
    CalibrationSpec,
    calibrate,
    check_bias_reduction,
    read_predictions_csv,
    write_predictions_csv,
)
from neubm.errors import ConfigError, DataError, NumericError
from neubm.graph import Graph, compute_dataset_stats
from neubm.models import ModelConfig, init_params, predict_logits
from neubm.neutral import NeutralConfig, construct_neutral, neutral_logit_vector
from neubm.training import softmax

SUBTRACT = CalibrationSpec("subtract")
NONE = CalibrationSpec("none")


def rand_logits(rng, n=20, c=4):
    return rng.normal(size=(n, c)) * 2.0


class TestSpec:
    def test_lambda_required_iff_scale(self):
        CalibrationSpec("scale", lam=1.0)
        with pytest.raises(ConfigError):
            CalibrationSpec("scale")
        with pytest.raises(ConfigError):
            CalibrationSpec("subtract", lam=1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ConfigError, match="lam must be a finite number"):
            CalibrationSpec("scale", lam=lam)

    def test_spec_ids(self):
        assert SUBTRACT.spec_id == "subtract@logits"
        assert CalibrationSpec("scale", "post_softmax", lam=0.5).spec_id == (
            "scale(0.5)@post_softmax"
        )


class TestCalibrateAlgebra:
    def test_hand_computed_subtraction(self):
        # [2,0] - [1,0] = [1,0] -> softmax = [e/(e+1), 1/(e+1)]
        out = calibrate(np.array([[2.0, 0.0]]), np.array([1.0, 0.0]), SUBTRACT)
        np.testing.assert_allclose(out.corrected_logits, [[1.0, 0.0]])
        np.testing.assert_allclose(
            out.probabilities, [[0.73106, 0.26894]], atol=5e-6
        )

    def test_zero_reference_equals_identity(self):
        rng = np.random.default_rng(0)
        logits = rand_logits(rng)
        zero = np.zeros(4)
        base = calibrate(logits, zero, NONE)
        for spec in (SUBTRACT, CalibrationSpec("scale", lam=1.0)):
            out = calibrate(logits, zero, spec)
            np.testing.assert_allclose(
                out.probabilities, base.probabilities, atol=1e-12
            )
        # normalize is undefined at sigma=0; with a unit-spread zero-mean
        # reference it reduces to subtract of that reference instead
        with pytest.raises(NumericError):
            calibrate(logits, zero, CalibrationSpec("normalize"))

    def test_normalize_with_unit_spread_matches_subtract(self):
        rng = np.random.default_rng(1)
        logits = rand_logits(rng, c=2)
        ref = np.array([0.5, -0.5])
        ref = ref / ref.std()  # unit population std: normalize == subtract
        sub = calibrate(logits, ref, SUBTRACT)
        norm = calibrate(logits, ref, CalibrationSpec("normalize"))
        np.testing.assert_allclose(
            norm.probabilities, sub.probabilities, atol=1e-12
        )

    def test_scale_lambda_one_is_subtract_bitwise(self):
        rng = np.random.default_rng(2)
        logits = rand_logits(rng)
        ref = rng.normal(size=4)
        a = calibrate(logits, ref, SUBTRACT)
        b = calibrate(logits, ref, CalibrationSpec("scale", lam=1.0))
        assert np.array_equal(a.corrected_logits, b.corrected_logits)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_uniform_reference_keeps_probabilities(self):
        rng = np.random.default_rng(3)
        logits = rand_logits(rng)
        uniform = np.full(4, 3.7)
        out = calibrate(logits, uniform, SUBTRACT)
        np.testing.assert_allclose(out.probabilities, softmax(logits), atol=1e-12)
        np.testing.assert_array_equal(
            out.predicted_labels, softmax(logits).argmax(axis=1)
        )

    def test_argmax_invariant_under_uniform_shift(self):
        rng = np.random.default_rng(4)
        logits = rand_logits(rng)
        ref = rng.normal(size=4)
        base = calibrate(logits, ref, SUBTRACT)
        for spec in (SUBTRACT, CalibrationSpec("scale", lam=0.7)):
            shifted = calibrate(logits, ref + 11.5, spec)
            np.testing.assert_array_equal(
                shifted.predicted_labels,
                calibrate(logits, ref, spec).predicted_labels,
            )
        np.testing.assert_array_equal(
            base.predicted_labels,
            calibrate(logits, ref + 11.5, SUBTRACT).predicted_labels,
        )

    def test_rows_on_simplex(self):
        rng = np.random.default_rng(5)
        logits = rand_logits(rng, n=50)
        ref = rng.normal(size=4)
        for spec in (
            NONE, SUBTRACT, CalibrationSpec("scale", lam=1.3),
            CalibrationSpec("normalize"), CalibrationSpec("subtract", "post_softmax"),
        ):
            out = calibrate(logits, ref, spec)
            np.testing.assert_allclose(
                out.probabilities.sum(axis=1), 1.0, atol=1e-9
            )
            assert np.all(out.probabilities >= 0)
            assert np.all(out.probabilities <= 1)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        logits = rand_logits(rng, n=10)
        ref = rng.normal(size=4)
        perm = rng.permutation(10)
        base = calibrate(logits, ref, SUBTRACT)
        permuted = calibrate(logits[perm], ref, SUBTRACT)
        np.testing.assert_array_equal(
            permuted.probabilities, base.probabilities[perm]
        )

    def test_tie_break_lowest_class(self):
        out = calibrate(np.array([[1.0, 1.0, 0.0]]), np.zeros(3), SUBTRACT)
        assert out.predicted_labels[0] == 0

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            calibrate(np.zeros((2, 3)), np.zeros(2), SUBTRACT)


class TestPostSoftmax:
    def test_subtract_then_renormalize(self):
        logits = np.array([[1.0, 0.0, -1.0]])
        ref = np.array([0.5, 0.0, -0.5])
        out = calibrate(logits, ref, CalibrationSpec("subtract", "post_softmax"))
        p = softmax(logits)[0]
        q = softmax(ref[None, :])[0]
        clamped = np.clip(p - q, 0.0, None)
        np.testing.assert_allclose(
            out.probabilities[0], clamped / clamped.sum(), atol=1e-12
        )
        assert out.corrected_logits is None

    def test_degenerate_row_raises(self):
        # model probabilities dominated everywhere by the neutral -> all clamp to 0
        logits = np.array([[0.0, 0.0]])
        ref = np.array([0.0, 0.0])
        with pytest.raises(NumericError):
            calibrate(logits, ref, CalibrationSpec("subtract", "post_softmax"))

    def test_none_position_is_plain_softmax(self):
        rng = np.random.default_rng(7)
        logits = rand_logits(rng)
        out = calibrate(logits, rng.normal(size=4),
                        CalibrationSpec("none", "post_softmax"))
        np.testing.assert_allclose(out.probabilities, softmax(logits), atol=1e-15)


def tiny_setup(seed=0):
    rng = np.random.default_rng(seed)
    n = 12
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if rng.random() < 0.3]
    graph = Graph(num_nodes=n, features=rng.normal(size=(n, 3)), edges=edges,
                  labels=rng.integers(0, 3, n), num_classes=3)
    params = init_params(ModelConfig("gcn", 3, 4, 3, dropout=0.0, seed=seed))
    stats = compute_dataset_stats(graph)
    neutral = construct_neutral(stats, NeutralConfig(seed=seed))
    return graph, params, neutral


class TestPredictCalibrated:
    """predict_logits + neutral_logit_vector + calibrate, composed as the
    README's usage snippet composes them."""

    def test_identity_path(self):
        graph, params, neutral = tiny_setup()
        out = calibrate(predict_logits(params, graph),
                        neutral_logit_vector(params, neutral), NONE)
        np.testing.assert_allclose(
            out.probabilities, softmax(predict_logits(params, graph)), atol=1e-15
        )

    def test_none_neutral_means_zero_vector(self):
        # the no-reference ablation calibrates against an all-zero vector
        graph, params, _ = tiny_setup(seed=2)
        logits = predict_logits(params, graph)
        out = calibrate(logits, np.zeros(logits.shape[1]), SUBTRACT)
        np.testing.assert_allclose(
            out.probabilities, softmax(predict_logits(params, graph)), atol=1e-12
        )


class TestBiasReport:
    def test_flat_reference_no_ordering(self):
        logits = np.array([[1.0, 2.0], [0.0, 1.0]])
        ref = np.array([0.5, 0.5])
        before = calibrate(logits, ref, NONE)
        after = calibrate(logits, ref, SUBTRACT)
        bias = check_bias_reduction(
            before.probabilities, after.probabilities, 0, ref,
            logits_before=logits, logits_after=after.corrected_logits,
        )
        assert bias["delta_per_class"] == [-0.5, -0.5]
        assert bias["min_shift_exceeds_maj"] is None

    def test_ordered_reference_orders_shifts(self):
        # reference (2, 0): class 0 shifted by -2, class 1 by 0
        logits = np.array([[1.0, 2.0], [0.0, 1.0]])
        ref = np.array([2.0, 0.0])
        before = calibrate(logits, ref, NONE)
        after = calibrate(logits, ref, SUBTRACT)
        bias = check_bias_reduction(
            before.probabilities, after.probabilities, 0, ref,
            logits_before=logits, logits_after=after.corrected_logits,
        )
        assert bias["delta_per_class"] == [-2.0, 0.0]
        assert bias["min_shift_exceeds_maj"] is True
        assert bias["neutral_vector"] == [2.0, 0.0]

    def test_majority_probability_drops_when_reference_favors_it(self):
        rng = np.random.default_rng(8)
        logits = rand_logits(rng, n=100, c=3)
        ref = np.array([1.5, 0.0, 0.0])  # model "leans" class 0
        before = calibrate(logits, ref, NONE)
        after = calibrate(logits, ref, SUBTRACT)
        bias = check_bias_reduction(
            before.probabilities, after.probabilities, majority_class=0,
            neutral_vec=ref,
        )
        assert bias["majority_prob_decreased"]
        # no logits: no shifts, so no ordering is claimed
        assert bias["delta_per_class"] is None
        assert bias["min_shift_exceeds_maj"] is None


class TestPredictionsCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        out = calibrate(rand_logits(rng, n=7, c=3), rng.normal(size=3), SUBTRACT)
        write_predictions_csv(out, tmp_path / "preds.csv")
        labels, probs = read_predictions_csv(tmp_path / "preds.csv")
        np.testing.assert_array_equal(labels, out.predicted_labels)
        np.testing.assert_allclose(probs, out.probabilities, rtol=1e-15)
