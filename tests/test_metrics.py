import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neubm.errors import GraphValidationError, NumericError, ShapeError
from neubm.metrics import (
    confusion,
    evaluate,
    f1_scores,
    imbalance_ratio,
    mmd_rbf,
)


def brute_force_report(pred, truth, num_classes):
    """Independent per-class tally, no shared code with the implementation."""
    per = []
    for c in range(num_classes):
        tp = sum(1 for p, t in zip(pred, truth) if p == c and t == c)
        fp = sum(1 for p, t in zip(pred, truth) if p == c and t != c)
        fn = sum(1 for p, t in zip(pred, truth) if p != c and t == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per.append((prec, rec, f1, tp + fn))
    macro = sum(p[2] for p in per) / num_classes
    weighted = sum(p[2] * p[3] for p in per) / len(truth)
    micro = sum(1 for p, t in zip(pred, truth) if p == t) / len(truth)
    return per, macro, weighted, micro


def reference_mmd2(x, y, bandwidth="median"):
    """Squared MMD by explicit pairwise differences, the form mmd_rbf had
    before it moved to the Gram identity."""
    def sq_dists(a, b):
        diff = a[:, None, :] - b[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)

    if bandwidth == "median":
        pooled = np.concatenate([x, y], axis=0)
        iu = np.triu_indices(pooled.shape[0], k=1)
        h = float(np.sqrt(np.median(sq_dists(pooled, pooled)[iu])))
        if h == 0.0:
            h = 1.0
    else:
        h = float(bandwidth)
    gamma = 1.0 / (2.0 * h * h)
    kxx = np.exp(-gamma * sq_dists(x, x)).mean()
    kyy = np.exp(-gamma * sq_dists(y, y)).mean()
    kxy = np.exp(-gamma * sq_dists(x, y)).mean()
    return kxx + kyy - 2.0 * kxy


def reference_gram_mmd(x, y):
    """mmd_rbf with the median bandwidth as np.median took it: the same
    Gram-form distances, so the result must match bit for bit."""
    pooled = np.concatenate([x, y], axis=0)
    pooled -= pooled.mean(axis=0)
    sq = pooled @ pooled.T
    norms = np.diag(sq).copy()
    sq *= -2.0
    sq += norms[:, None]
    sq += norms[None, :]
    np.maximum(sq, 0.0, out=sq)
    h = float(np.sqrt(np.median(sq[~np.tri(sq.shape[0], dtype=bool)])))
    if h == 0.0:
        h = 1.0
    k = np.exp(sq * (-1.0 / (2.0 * h * h)))
    n = x.shape[0]
    mmd2 = k[:n, :n].mean() + k[n:, n:].mean() - 2.0 * k[:n, n:].mean()
    return float(np.sqrt(max(0.0, mmd2)))


class TestConfusion:
    def test_perfect_is_diagonal(self):
        cm = confusion([0, 1, 2, 1], [0, 1, 2, 1], num_classes=3)
        np.testing.assert_array_equal(cm.counts, np.diag([1, 2, 1]))

    def test_hand_tally(self):
        cm = confusion([0, 0, 1, 1], [0, 1, 1, 1])
        assert cm.counts.tolist() == [[1, 0], [1, 2]]

    def test_empty_mask(self):
        cm = confusion([0, 1], [1, 0], mask=[False, False], num_classes=2)
        assert cm.counts.sum() == 0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion([0, 1], [0])

    def test_unlabeled_truth_rejected(self):
        # label -1 must not be tallied as the last class
        with pytest.raises(GraphValidationError):
            confusion([0, 1, 2], [0, 1, -1], num_classes=3)

    def test_prediction_outside_classes_rejected(self):
        with pytest.raises(GraphValidationError):
            confusion([0, 3], [0, 1], num_classes=3)

    def test_masked_out_unlabeled_truth_ignored(self):
        cm = confusion([0, 1, 2], [0, 1, -1], mask=[True, True, False],
                       num_classes=3)
        assert cm.counts.sum() == 2


class TestF1:
    def test_hand_computation(self):
        # [[1,0],[1,2]]: class0 P=.5 R=1 F1=2/3; class1 P=1 R=2/3 F1=.8
        cm = confusion([0, 0, 1, 1], [0, 1, 1, 1])
        rep = f1_scores(cm)
        assert rep.per_class[0].f1 == pytest.approx(2 / 3)
        assert rep.per_class[1].f1 == pytest.approx(0.8)
        assert rep.f1_macro == pytest.approx(0.73333, abs=1e-5)
        assert rep.f1_micro == pytest.approx(0.75)

    def test_perfect(self):
        cm = confusion([0, 1, 2], [0, 1, 2])
        rep = f1_scores(cm)
        assert rep.f1_macro == rep.f1_weighted == rep.f1_micro == 1.0

    def test_empty_matrix_rejected(self):
        cm = confusion([0], [0], mask=[False], num_classes=2)
        with pytest.raises(GraphValidationError):
            f1_scores(cm)

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            c = int(rng.integers(2, 11))
            n = int(rng.integers(5, 60))
            truth = rng.integers(0, c, size=n)
            pred = rng.integers(0, c, size=n)
            rep = f1_scores(confusion(pred, truth, num_classes=c))
            per, macro, weighted, micro = brute_force_report(pred, truth, c)
            for got, exp in zip(rep.per_class, per):
                assert got.precision == pytest.approx(exp[0], abs=1e-12)
                assert got.recall == pytest.approx(exp[1], abs=1e-12)
                assert got.f1 == pytest.approx(exp[2], abs=1e-12)
                assert got.support == exp[3]
            assert rep.f1_macro == pytest.approx(macro, abs=1e-12)
            assert rep.f1_weighted == pytest.approx(weighted, abs=1e-12)
            assert rep.f1_micro == pytest.approx(micro, abs=1e-12)

    def test_micro_equals_accuracy_property(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(3, 30))
            rep = f1_scores(
                confusion(rng.integers(0, c, n), rng.integers(0, c, n), num_classes=c)
            )
            assert rep.f1_micro == rep.accuracy

    def test_weighted_between_min_and_max(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(5, 40))
            truth = rng.integers(0, c, n)
            rep = f1_scores(confusion(rng.integers(0, c, n), truth, num_classes=c))
            f1s = [s.f1 for s in rep.per_class if s.support > 0]
            assert min(f1s) - 1e-12 <= rep.f1_weighted <= max(f1s) + 1e-12

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        c, n = 4, 50
        truth = rng.integers(0, c, n)
        pred = rng.integers(0, c, n)
        perm = rng.permutation(c)
        base = f1_scores(confusion(pred, truth, num_classes=c))
        relabeled = f1_scores(confusion(perm[pred], perm[truth], num_classes=c))
        assert base.f1_macro == pytest.approx(relabeled.f1_macro, abs=1e-12)
        assert base.f1_micro == pytest.approx(relabeled.f1_micro, abs=1e-12)
        assert base.f1_weighted == pytest.approx(relabeled.f1_weighted, abs=1e-12)

    def test_json_field_names(self):
        rep = evaluate([0, 1], [0, 1], num_classes=2)
        d = rep.to_dict()
        assert list(d.keys()) == [
            "f1_macro", "f1_weighted", "f1_micro", "accuracy", "rho", "per_class",
        ]
        assert {"class", "precision", "recall", "f1", "support"} == set(
            d["per_class"][0].keys()
        )


class TestImbalanceRatio:
    def test_direct_ratio(self):
        assert imbalance_ratio([0] * 5 + [1]) == 5.0

    def test_balanced(self):
        assert imbalance_ratio([0, 0, 1, 1, 2, 2]) == 1.0

    def test_unlabeled_excluded(self):
        assert imbalance_ratio([0, 0, -1, -1, 1]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(GraphValidationError):
            imbalance_ratio([-1, -1])


class TestMmd:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 3))
        assert mmd_rbf(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_closed_form(self):
        # X={0}, Y={1}, gamma = 1/(2h^2) = 1: MMD^2 = 2 - 2e^{-1}
        h = 1.0 / np.sqrt(2.0)
        got = mmd_rbf(np.array([[0.0]]), np.array([[1.0]]), bandwidth=h)
        assert got == pytest.approx(np.sqrt(2.0 - 2.0 * np.exp(-1.0)), abs=1e-12)

    def test_translation_invariance(self):
        # a shared shift leaves the RBF-kernel distance unchanged
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(15, 4)), rng.normal(size=(12, 4))
        shift = rng.normal(size=4) * 10
        base = mmd_rbf(x, y, bandwidth=1.3)
        shifted = mmd_rbf(x + shift, y + shift, bandwidth=1.3)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(10, 2)), rng.normal(size=(8, 2)) + 1.0
        assert mmd_rbf(x, y) >= 0
        assert mmd_rbf(x, y) == pytest.approx(mmd_rbf(y, x), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            mmd_rbf(np.zeros((3, 2)), np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_raise(self, bad):
        x = np.zeros((4, 2))
        x[2, 1] = bad
        with pytest.raises(NumericError):
            mmd_rbf(x, np.ones((3, 2)))
        with pytest.raises(NumericError):
            mmd_rbf(np.ones((3, 2)), x, bandwidth=1.0)

    def test_nan_bandwidth_raises(self):
        with pytest.raises(NumericError):
            mmd_rbf(np.zeros((3, 2)), np.ones((3, 2)), bandwidth=float("nan"))

    def test_non_numeric_bandwidth_is_shape_error(self):
        with pytest.raises(ShapeError):
            mmd_rbf(np.zeros((3, 2)), np.ones((3, 2)), bandwidth="med")

    def test_overflowing_distances_raise(self):
        x, y = np.array([[1e200, 0.0]]), np.array([[-1e200, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                mmd_rbf(x, y)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    d=st.integers(1, 6),
    bandwidth=st.one_of(st.just("median"), st.floats(0.2, 5.0)),
    shift_scale=st.sampled_from([0.0, 1.0, 1e2, 1e4]),
    spread=st.sampled_from([1.0, 1e2]),
    points=st.sampled_from(["normal", "grid", "equal"]),
)
# strict-upper pair counts 1 (1+1 samples), 3, 6 and 10: odd and even
@example(seed=0, n=1, m=1, d=1, bandwidth="median", shift_scale=0.0,
         spread=1.0, points="normal")
@example(seed=1, n=1, m=2, d=2, bandwidth="median", shift_scale=1.0,
         spread=1.0, points="normal")
@example(seed=2, n=2, m=2, d=1, bandwidth="median", shift_scale=0.0,
         spread=1.0, points="grid")
@example(seed=3, n=3, m=2, d=1, bandwidth="median", shift_scale=0.0,
         spread=1.0, points="grid")
@example(seed=4, n=3, m=4, d=2, bandwidth="median", shift_scale=1e2,
         spread=1.0, points="equal")
def test_mmd_matches_pairwise_reference(seed, n, m, d, bandwidth, shift_scale,
                                        spread, points):
    # MMD^2 is compared, not MMD: the square root amplifies rounding near 0.
    # "grid" rounds the points so that many distances tie; "equal" makes
    # every point the same, so the median distance is 0 and h falls back to 1.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.normal(size=(m, d)) + rng.uniform(0.0, 2.0)
    if points == "grid":
        x, y = np.round(x), np.round(y)
    elif points == "equal":
        x, y = np.zeros_like(x) + x[0], np.zeros_like(y) + x[0]
    shift = rng.uniform(-1.0, 1.0, size=d) * shift_scale
    x, y = spread * x + shift, spread * y + shift
    expected = reference_mmd2(x, y, bandwidth)
    got = mmd_rbf(x, y, bandwidth)
    assert got ** 2 == pytest.approx(max(expected, 0.0), abs=1e-12)
    if bandwidth == "median":
        assert got == reference_gram_mmd(x, y)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.integers(2, 5))
def test_micro_accuracy_identity_property(seed, c):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    rep = f1_scores(
        confusion(rng.integers(0, c, n), rng.integers(0, c, n), num_classes=c)
    )
    assert rep.f1_micro == rep.accuracy
