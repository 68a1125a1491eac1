"""Acceptance criteria, one test per criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live) and enforces
its stated numeric tolerance and runtime budget.
"""

import functools
import time

import numpy as np

from neubm.calibrate import CalibrationSpec, calibrate
from neubm.datasets import (
    SbmConfig,
    generate_sbm,
    kfold_splits,
    stratified_split,
)
from neubm.graph import DatasetStats, Graph, compute_dataset_stats
from neubm.harness import (
    ExperimentConfig,
    ProtocolConfig,
    read_records,
    run_experiment,
)
from neubm.metrics import confusion, f1_scores, mmd_rbf
from neubm.models import (
    ModelConfig,
    init_params,
    predict_logits,
    prepare_operator,
    row_view,
)
from neubm.neutral import NeutralConfig, construct_neutral, neutral_logit_vector
from neubm.training import TrainConfig, cross_entropy_loss, loss_and_gradients, train


def criterion(num, description, budget_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL {description}")
                raise
            elapsed = time.perf_counter() - start
            print(
                f"[criterion {num:02d}] PASS {description} ({elapsed:.1f}s)"
            )
            assert elapsed < budget_seconds, (
                f"criterion {num} exceeded its {budget_seconds}s budget"
            )
        return wrapper
    return decorate


def random_small_graph(rng, n=12, d=4, num_classes=3):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if rng.random() < 0.35]
    return Graph(
        num_nodes=n, features=rng.normal(size=(n, d)), edges=edges,
        labels=rng.integers(0, num_classes, size=n), num_classes=num_classes,
    )


@criterion(1, "calibration algebra identities", budget_seconds=1.0)
def test_criterion_01_calibration_algebra():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(200, 5)) * 3.0
    ref = rng.normal(size=5)

    sub = calibrate(logits, ref, CalibrationSpec("subtract"))
    scale1 = calibrate(logits, ref, CalibrationSpec("scale", lam=1.0))
    assert np.array_equal(sub.corrected_logits, scale1.corrected_logits)
    assert np.array_equal(sub.probabilities, scale1.probabilities)

    plain = calibrate(logits, np.zeros(5), CalibrationSpec("none"))
    for spec in (CalibrationSpec("subtract"), CalibrationSpec("scale", lam=1.0)):
        zeroed = calibrate(logits, np.zeros(5), spec)
        np.testing.assert_allclose(
            zeroed.probabilities, plain.probabilities, atol=1e-12
        )

    uniform = np.full(5, -2.25)
    shifted = calibrate(logits, uniform, CalibrationSpec("subtract"))
    np.testing.assert_allclose(
        shifted.probabilities, plain.probabilities, atol=1e-12
    )
    assert np.array_equal(shifted.predicted_labels, plain.predicted_labels)


@criterion(2, "analytic gradients match finite differences", budget_seconds=30.0)
def test_criterion_02_gradient_correctness():
    step, tol = 1e-5, 1e-4
    rng = np.random.default_rng(2)
    checked = 0
    for arch, n_graphs in (("gcn", 12), ("gat", 8)):
        for trial in range(n_graphs):
            g = random_small_graph(rng)
            cfg = ModelConfig(
                arch, input_dim=4, hidden_dim=4, num_classes=3,
                dropout=0.0, num_heads=2, seed=trial,
            )
            params = init_params(cfg)
            rows = np.arange(12)
            view = row_view(prepare_operator(g, cfg), rows)
            _, grad = loss_and_gradients(
                params, view, g.labels[rows], weight_decay=0.01
            )
            flat = params.flat()
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                for sign in (+1.0, -1.0):
                    bumped = params.from_flat(
                        flat + sign * step * (np.arange(flat.size) == i)
                    )
                    fd[i] += sign * cross_entropy_loss(
                        predict_logits(bumped, g)[rows], g.labels[rows], 0.01,
                        bumped,
                    )
                fd[i] /= 2 * step
            rel = np.abs(grad - fd) / np.maximum(
                1.0, np.maximum(np.abs(grad), np.abs(fd))
            )
            assert rel.max() <= tol, f"{arch} graph {trial}: {rel.max():.2e}"
            checked += 1
    assert checked >= 20


@criterion(3, "metrics match a brute-force oracle", budget_seconds=10.0)
def test_criterion_03_metric_oracle():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        c = int(rng.integers(2, 11))
        n = int(rng.integers(5, 50))
        truth = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        rep = f1_scores(confusion(pred, truth, num_classes=c))

        f1s, supports = [], []
        for cls in range(c):
            tp = int(np.sum((pred == cls) & (truth == cls)))
            fp = int(np.sum((pred == cls) & (truth != cls)))
            fn = int(np.sum((pred != cls) & (truth == cls)))
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            assert abs(rep["per_class"][cls]["precision"] - prec) <= 1e-12
            assert abs(rep["per_class"][cls]["recall"] - rec) <= 1e-12
            assert abs(rep["per_class"][cls]["f1"] - f1) <= 1e-12
            f1s.append(f1)
            supports.append(tp + fn)
        assert abs(rep["f1_macro"] - np.mean(f1s)) <= 1e-12
        assert abs(rep["f1_weighted"] - np.dot(f1s, supports) / n) <= 1e-12
        assert abs(rep["f1_micro"] - np.mean(pred == truth)) <= 1e-12


@criterion(4, "neutral construction statistics", budget_seconds=30.0)
def test_criterion_04_neutral_statistics():
    mu = np.array([1.0, -0.5, 2.0, 0.0])
    sigma = np.diag([1.0, 0.5, 2.0, 1.5])
    stats = DatasetStats(n_bar=100.0, d_bar=0.1, mu_node=mu, sigma_node=sigma)
    pairs = 100 * 99 / 2
    densities = [
        construct_neutral(stats, NeutralConfig(seed=s)).graph.num_edges / pairs
        for s in range(200)
    ]
    band = 3 * np.sqrt(0.1 * 0.9 / pairs) / np.sqrt(200)
    assert abs(np.mean(densities) - 0.1) < band

    sums, count = np.zeros(4), 0
    for s in range(50):
        g = construct_neutral(stats, NeutralConfig(seed=s)).graph
        sums += g.features.sum(axis=0)
        count += g.num_nodes
    mean_band = 3 * np.sqrt(np.diag(sigma) / count)
    assert np.all(np.abs(sums / count - mu) < mean_band)


ACCEPTANCE_SBM = SbmConfig(
    num_classes=5, total_nodes=2000, rho=10, p_intra=0.02, p_inter=0.006,
    feature_dim=16, class_mean_separation=0.8, feature_std=1.0, seed=2024,
)


def directional_config(output_dir) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=ACCEPTANCE_SBM,
        model={"architecture": "gcn", "hidden_dim": 32, "dropout": 0.5},
        train=TrainConfig(learning_rate=0.01, weight_decay=5e-4,
                          max_epochs=150, patience=40, seed=0),
        calibration=(CalibrationSpec("none"), CalibrationSpec("subtract")),
        protocol=ProtocolConfig(num_seeds=5, k_folds=1),
        output_dir=str(output_dir),
    )


@criterion(5, "directional improvement on imbalanced data", budget_seconds=300.0)
def test_criterion_05_directional_improvement(tmp_path):
    cfg = directional_config(tmp_path / "exp")
    run_experiment(cfg)
    records = read_records(tmp_path / "exp" / "records.jsonl")

    gaps, decreases = [], []
    for seed in range(5):
        none = next(r for r in records
                    if r["seed"] == seed and r["row_id"] == "none@logits")
        sub = next(r for r in records
                   if r["seed"] == seed and r["row_id"] == "subtract@logits")
        gaps.append(sub["metrics"]["f1_macro"] - none["metrics"]["f1_macro"])
        decreases.append(sub["bias"]["majority_prob_decreased"])
    assert np.mean(gaps) >= 0.03, f"mean f1_macro gap {np.mean(gaps):+.4f}"
    assert sum(decreases) >= 4, f"majority prob decreased in {sum(decreases)}/5"


@criterion(6, "per-class shift ordering follows the reference", budget_seconds=30.0)
def test_criterion_06_shift_ordering():
    g = generate_sbm(SbmConfig(
        num_classes=3, total_nodes=240, rho=4, p_intra=0.1, p_inter=0.01,
        feature_dim=6, class_mean_separation=1.2, seed=4,
    ))
    split = stratified_split(g, 0.15, 0.15, 3, seed=0)
    params, _ = train(
        g, split, ModelConfig("gcn", 6, 12, 3, dropout=0.2, seed=1),
        TrainConfig(learning_rate=0.01, max_epochs=40, patience=40, seed=1),
    )
    logits = predict_logits(params, g)
    stats = compute_dataset_stats(g)
    checked = 0
    for seed in range(10):
        vec = neutral_logit_vector(
            params, construct_neutral(stats, NeutralConfig(seed=seed))
        )
        lo, hi = int(vec.argmin()), int(vec.argmax())
        if vec[lo] == vec[hi]:
            continue
        out = calibrate(logits, vec, CalibrationSpec("subtract"))
        delta = (out.corrected_logits - logits).mean(axis=0)
        # delta_c = -vec_c up to summation rounding; the ordering is exact
        np.testing.assert_allclose(delta, -vec, atol=1e-12)
        assert delta[lo] > delta[hi]
        checked += 1
    assert checked > 0


@criterion(7, "halved perturbations never move outputs more", budget_seconds=30.0)
def test_criterion_07_stability(tmp_path):
    g = generate_sbm(SbmConfig(
        num_classes=3, total_nodes=200, rho=3, p_intra=0.1, p_inter=0.01,
        feature_dim=6, class_mean_separation=1.5, seed=9,
    ))
    split = stratified_split(g, 0.2, 0.2, 3, seed=0)
    params, _ = train(
        g, split, ModelConfig("gcn", 6, 12, 3, dropout=0.2, seed=2),
        TrainConfig(learning_rate=0.01, max_epochs=40, patience=40, seed=2),
    )
    vec = neutral_logit_vector(
        params, construct_neutral(compute_dataset_stats(g), NeutralConfig(seed=0))
    )
    base = calibrate(predict_logits(params, g), vec,
                     CalibrationSpec("subtract")).probabilities

    rng = np.random.default_rng(7)
    delta = 1e-3
    for _ in range(50):
        direction = rng.normal(size=g.features.shape)
        direction /= np.linalg.norm(direction)

        def probs_at(scale):
            perturbed = Graph(
                num_nodes=g.num_nodes,
                features=g.features + scale * direction,
                edges=g.edges, labels=g.labels, num_classes=g.num_classes,
            )
            return calibrate(
                predict_logits(params, perturbed), vec,
                CalibrationSpec("subtract"),
            ).probabilities

        change_full = np.linalg.norm(probs_at(delta) - base)
        change_half = np.linalg.norm(probs_at(delta / 2) - base)
        assert change_half <= change_full + 1e-12


@criterion(8, "repeated experiment runs produce byte-identical reports",
           budget_seconds=600.0)
def test_criterion_08_determinism(tmp_path):
    def config(out):
        return ExperimentConfig(
            dataset=SbmConfig(
                num_classes=3, total_nodes=300, rho=5, p_intra=0.08,
                p_inter=0.01, feature_dim=6, class_mean_separation=1.5, seed=1,
            ),
            model={"architecture": "gcn", "hidden_dim": 16, "dropout": 0.3},
            train=TrainConfig(learning_rate=0.01, max_epochs=60, patience=60,
                              seed=0),
            calibration=(CalibrationSpec("none"), CalibrationSpec("subtract"),
                         CalibrationSpec("normalize")),
            protocol=ProtocolConfig(num_seeds=2, k_folds=2, train_frac=0.1,
                                    val_frac=0.1, min_per_class=3),
            output_dir=str(out),
        )

    run_experiment(config(tmp_path / "one"))
    run_experiment(config(tmp_path / "two"))
    for fname in ("aggregate.json", "results.csv"):
        a = (tmp_path / "one" / fname).read_bytes()
        b = (tmp_path / "two" / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"


@criterion(9, "MMD estimator closed form and invariances", budget_seconds=5.0)
def test_criterion_09_mmd():
    h = 1.0 / np.sqrt(2.0)  # gamma = 1/(2 h^2) = 1
    got = mmd_rbf(np.array([[0.0]]), np.array([[1.0]]), bandwidth=h)
    assert abs(got - np.sqrt(2.0 - 2.0 * np.exp(-1.0))) <= 1e-9

    rng = np.random.default_rng(11)
    x = rng.normal(size=(25, 3))
    assert mmd_rbf(x, x, bandwidth=1.0) <= 1e-12

    y = rng.normal(size=(20, 3)) + 0.5
    shift = rng.normal(size=3) * 7.0
    base = mmd_rbf(x, y, bandwidth=1.1)
    moved = mmd_rbf(x + shift, y + shift, bandwidth=1.1)
    assert abs(base - moved) <= 1e-12


@criterion(10, "split protocol fidelity", budget_seconds=5.0)
def test_criterion_10_protocol_fidelity():
    # minority top-up: the 5-node class gets exactly 5 train nodes
    labels = np.concatenate([np.zeros(55, int), np.ones(5, int)])
    g = Graph(num_nodes=60, features=np.zeros((60, 2)), edges=[(0, 1)],
              labels=labels, num_classes=2)
    split = stratified_split(g, 0.1, 0.1, min_per_class=5, seed=3)
    assert int(np.sum(labels[split.train] == 1)) == 5

    # k = 5 folds each hit the 10/10/80 ratio (sizes chosen so rounding is exact)
    sizes = (400, 300, 200, 100)
    labels = np.concatenate([np.full(s, i) for i, s in enumerate(sizes)])
    g = Graph(num_nodes=1000, features=np.zeros((1000, 2)), edges=[(0, 1)],
              labels=labels, num_classes=4)
    folds = kfold_splits(g, 5, 0.1, 0.1, min_per_class=5, seed=2)
    assert len(folds) == 5
    for fold in folds:
        assert len(fold.train) == 100
        assert len(fold.val) == 100
        assert len(fold.test) == 800
