import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neubm.datasets import SbmConfig, generate_sbm, stratified_split
from neubm.errors import (
    EmptyScopeError,
    GraphValidationError,
    TrainingFailureError,
)
from neubm.graph import Graph, compute_dataset_stats, csr_rows
from neubm.harness import _make_refresh_hook
from neubm.metrics import evaluate
from neubm.models import (
    ModelConfig,
    backward_with_operator,
    forward_with_operator,
    init_params,
    prepare_operator,
    row_view,
)
from neubm.neutral import NeutralConfig, train_rows
from neubm.training import (
    AdamState,
    TrainConfig,
    adam_step,
    cross_entropy_loss,
    loss_and_gradients,
    softmax,
    train,
)
from test_models import reference_attention_backward  # the per-edge kernel


def random_graph(rng, n=12, d=4, p=0.35, num_classes=3):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pr for pr in pairs if rng.random() < p]
    return Graph(
        num_nodes=n,
        features=rng.normal(size=(n, d)),
        edges=edges,
        labels=rng.integers(0, num_classes, size=n),
        num_classes=num_classes,
    )


def finite_difference(params, graph, labels, mask, weight_decay, step=1e-5):
    """Central-difference gradient of the eval-mode loss, component by component."""
    flat = params.flat()
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (+1, -1):
            bumped = flat.copy()
            bumped[i] += sign * step
            loss = cross_entropy_loss(
                _eval_logits(params.from_flat(bumped), graph),
                labels, mask, weight_decay, params.from_flat(bumped),
            )
            fd[i] += sign * loss
        fd[i] /= 2 * step
    return fd


def _eval_logits(params, graph):
    from neubm.models import forward_with_operator, prepare_operator

    operator = prepare_operator(graph, params.config)
    logits, _ = forward_with_operator(params, operator, graph.features, mode="eval")
    return logits


def max_rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))


class TestCrossEntropy:
    def test_uniform_two_class(self):
        loss = cross_entropy_loss(
            np.array([[0.0, 0.0]]), np.array([0]), np.array([True])
        )
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_extreme_logits_stable(self):
        # log-sum-exp must not overflow; exact value is log(1 + e^-1000) ~ 0
        loss = cross_entropy_loss(
            np.array([[1000.0, 0.0]]), np.array([0]), np.array([True])
        )
        assert np.isfinite(loss)
        assert loss == pytest.approx(0.0, abs=1e-300)

    def test_zero_params_decay_is_free(self):
        cfg = ModelConfig("gcn", input_dim=2, hidden_dim=2, num_classes=2, dropout=0.0)
        params = init_params(cfg).from_flat(np.zeros(init_params(cfg).size))
        logits = np.array([[3.0, -1.0], [0.5, 2.0]])
        labels = np.array([0, 1])
        mask = np.array([True, True])
        with_decay = cross_entropy_loss(logits, labels, mask, 1.0, params)
        without = cross_entropy_loss(logits, labels, mask, 0.0)
        assert with_decay == pytest.approx(without, abs=1e-15)

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyScopeError):
            cross_entropy_loss(np.zeros((2, 2)), np.zeros(2, int), [False, False])

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(10, 4))
        labels = rng.integers(0, 4, 10)
        mask = np.ones(10, bool)
        base = cross_entropy_loss(logits, labels, mask)
        shifted = logits + rng.normal(size=(10, 1))  # per-node constant
        assert cross_entropy_loss(shifted, labels, mask) == pytest.approx(
            base, abs=1e-12
        )

    def test_mean_semantics(self):
        # masked mean loss equals the average of single-node losses
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, 6)
        mask = np.array([True, True, False, True, False, False])
        total = cross_entropy_loss(logits, labels, mask)
        singles = []
        for i in np.flatnonzero(mask):
            m = np.zeros(6, bool)
            m[i] = True
            singles.append(cross_entropy_loss(logits, labels, m))
        assert total == pytest.approx(np.mean(singles), abs=1e-12)


class TestGradients:
    def test_gcn_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            g = random_graph(rng)
            cfg = ModelConfig("gcn", input_dim=4, hidden_dim=5, num_classes=3,
                              dropout=0.0, seed=trial)
            params = init_params(cfg)
            mask = np.ones(12, bool)
            _, grad = loss_and_gradients(params, g, g.labels, mask, weight_decay=0.01)
            fd = finite_difference(params, g, g.labels, mask, weight_decay=0.01)
            assert max_rel_err(grad, fd) <= 1e-4

    def test_gat_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        for trial in range(3):
            g = random_graph(rng)
            cfg = ModelConfig("gat", input_dim=4, hidden_dim=3, num_classes=3,
                              dropout=0.0, num_heads=2, seed=trial)
            params = init_params(cfg)
            mask = np.ones(12, bool)
            _, grad = loss_and_gradients(params, g, g.labels, mask, weight_decay=0.01)
            fd = finite_difference(params, g, g.labels, mask, weight_decay=0.01)
            assert max_rel_err(grad, fd) <= 1e-4

    def test_gat_row_view_matches_finite_differences(self):
        # criterion 2's step and tolerance on a strict-subset mask, so the
        # output layer runs on the view's rows only; nodes 10 and 11 are
        # isolated, one inside the mask and one outside
        rng = np.random.default_rng(40)
        mask = np.zeros(12, bool)
        mask[[0, 2, 3, 5, 8, 10]] = True
        for trial in range(3):
            g = random_graph(rng)
            g = Graph(num_nodes=12, features=g.features, labels=g.labels,
                      num_classes=3,
                      edges=[(u, v) for u, v in g.edges if max(u, v) < 10])
            cfg = ModelConfig("gat", input_dim=4, hidden_dim=3, num_classes=3,
                              dropout=0.0, num_heads=2, seed=trial)
            params = init_params(cfg)
            _, cache = forward_with_operator(
                params, prepare_operator(g, cfg), g.features
            )
            head_caches, _, _, h1, out_cache, _ = cache
            heads = [(g.features, *params.arrays[3 * i : 3 * i + 3], c[2])
                     for i, c in enumerate(head_caches)]
            heads.append((h1, *params.arrays[-3:], out_cache[2]))
            for h, w, a_s, a_d, att in heads:
                proj = h @ w
                e = (proj @ a_s)[csr_rows(att)] + (proj @ a_d)[att.indices]
                assert (e > 0.0).any() and (e < 0.0).any()  # both LeakyReLU branches
            _, grad = loss_and_gradients(params, g, g.labels, mask, weight_decay=0.01)
            fd = finite_difference(params, g, g.labels, mask, weight_decay=0.01,
                                   step=1e-5)
            assert max_rel_err(grad, fd) <= 1e-4

    def test_narrow_input_gat_row_view_matches_finite_differences(self):
        # input_dim < hidden_dim: layer-1 heads aggregate the features and
        # project after; criterion 2's step and tolerance on a row view
        rng = np.random.default_rng(50)
        mask = np.zeros(12, bool)
        mask[[1, 2, 4, 7, 9, 11]] = True
        for trial in range(3):
            g = random_graph(rng, d=3)
            cfg = ModelConfig("gat", input_dim=3, hidden_dim=5, num_classes=3,
                              dropout=0.0, num_heads=2, seed=trial)
            params = init_params(cfg)
            _, grad = loss_and_gradients(params, g, g.labels, mask, weight_decay=0.01)
            fd = finite_difference(params, g, g.labels, mask, weight_decay=0.01,
                                   step=1e-5)
            assert max_rel_err(grad, fd) <= 1e-4

    def test_gat_memory_at_criterion_5_scale(self):
        # 2,000 nodes, 42.8k stored entries, width 32; gathering the
        # (edges x width) per-edge products peaked at 26 MiB here
        g = generate_sbm(SbmConfig(
            num_classes=5, total_nodes=2000, rho=10, p_intra=0.02,
            p_inter=0.006, feature_dim=16, class_mean_separation=0.8,
            seed=2024,
        ))
        mask = stratified_split(g, 0.1, 0.1, 5, seed=0).to_masks(2000)["train"]
        cfg = ModelConfig("gat", input_dim=16, hidden_dim=32, num_classes=5,
                          dropout=0.5, seed=0)
        params = init_params(cfg)
        view = row_view(prepare_operator(g, cfg), np.flatnonzero(mask))
        tracemalloc.start()
        try:
            loss_and_gradients(params, g, g.labels, mask, weight_decay=5e-4,
                               mode="train", dropout_seed=1, operator=view)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_zero_features_dead_first_layer(self):
        g = Graph(
            num_nodes=4, features=np.zeros((4, 3)), edges=[(0, 1), (2, 3)],
            labels=[0, 1, 0, 1], num_classes=2,
        )
        cfg = ModelConfig("gcn", input_dim=3, hidden_dim=4, num_classes=2, dropout=0.0)
        params = init_params(cfg)
        _, grad = loss_and_gradients(params, g, g.labels, np.ones(4, bool))
        w0_size = params.arrays[0].size
        np.testing.assert_array_equal(grad[:w0_size], np.zeros(w0_size))

    def test_mask_mean_invariance(self):
        # gradient of a mean loss is the average of per-node gradients
        rng = np.random.default_rng(30)
        g = random_graph(rng, n=8)
        cfg = ModelConfig("gcn", input_dim=4, hidden_dim=3, num_classes=3,
                          dropout=0.0, seed=0)
        params = init_params(cfg)
        mask = np.zeros(8, bool)
        mask[[1, 4, 6]] = True
        _, grad = loss_and_gradients(params, g, g.labels, mask)
        singles = []
        for i in [1, 4, 6]:
            m = np.zeros(8, bool)
            m[i] = True
            _, gi = loss_and_gradients(params, g, g.labels, m)
            singles.append(gi)
        np.testing.assert_allclose(grad, np.mean(singles, axis=0), atol=1e-12)


def reference_gat_backward(params, adj, features, dlogits, cache):
    """The former GAT backward: full-width dlogits, per-edge heads, each
    recomputing g = h . W from the weights."""
    k, h = params.config.num_heads, params.config.hidden_dim
    head_caches, z1, drop, h1, out_cache, _ = cache
    w1, a1_s, a1_d = params.arrays[3 * k :]
    dh1, *out_grads = reference_attention_backward(
        dlogits, h1, w1, a1_s, a1_d, adj, out_cache
    )
    da1 = dh1 * drop if drop is not None else dh1
    dz1 = da1 * (z1 > 0.0)
    grads = []
    for i in range(k):
        w, a_s, a_d = params.arrays[3 * i : 3 * i + 3]
        grads.extend(reference_attention_backward(
            dz1[:, i * h : (i + 1) * h], features, w, a_s, a_d, adj,
            head_caches[i],
        )[1:])
    return tuple(grads + out_grads)


def reference_loss_and_gradients(params, graph, labels, mask, weight_decay,
                                 mode, dropout_seed):
    """The former full-width loss_and_gradients: logits for every node,
    dlogits scattered into an n x C zero array, the GCN backward's
    A_hat . dlogits as the CSR product of the full adjacency, and GAT's
    per-edge attention backward."""
    operator = prepare_operator(graph, params.config)
    idx = np.flatnonzero(mask)
    logits, cache = forward_with_operator(
        params, operator, graph.features, mode=mode, dropout_seed=dropout_seed
    )
    loss = cross_entropy_loss(logits, labels, mask, weight_decay, params)
    probs = softmax(logits[idx])
    dlogits = np.zeros_like(logits)
    dlogits[idx] = probs
    dlogits[idx, labels[idx]] -= 1.0
    dlogits[idx] /= idx.size
    if params.config.architecture == "gcn":
        w0, w1 = params.arrays
        z1, drop, h1 = cache
        adl = operator.norm_adj @ dlogits
        dh1 = adl @ w1.T
        da1 = dh1 * drop if drop is not None else dh1
        grads = (operator.ax.T @ (da1 * (z1 > 0.0)), h1.T @ adl)
    else:
        grads = reference_gat_backward(params, operator, graph.features,
                                       dlogits, cache)
    flat = np.concatenate([g.ravel() for g in grads])
    if weight_decay != 0.0:
        flat = flat + weight_decay * params.flat()
    return loss, flat


@settings(max_examples=120, deadline=None)
@given(
    architecture=st.sampled_from(["gcn", "gat"]),
    n=st.integers(min_value=1, max_value=12),
    p=st.floats(min_value=0.0, max_value=1.0),
    rows=st.sampled_from(["one", "all", "some"]),
    mode=st.sampled_from(["eval", "train"]),
    weight_decay=st.sampled_from([0.0, 5e-4]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_loss_and_gradients_match_full_width_reference(
    architecture, n, p, rows, mode, weight_decay, seed
):
    # p = 0 gives all-isolated nodes; n = 1 a lone self-loop. GCN matches
    # bit for bit; GAT's row-restricted output layer sums in another order.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n=n, p=p)
    if rows == "one":
        mask = np.zeros(n, bool)
        mask[rng.integers(n)] = True
    elif rows == "all":
        mask = np.ones(n, bool)
    else:
        mask = rng.random(n) < 0.5
        mask[rng.integers(n)] = True
    cfg = ModelConfig(architecture, input_dim=4, hidden_dim=5, num_classes=3,
                      dropout=0.5, num_heads=2, seed=int(rng.integers(100)))
    params = init_params(cfg)
    loss, grad = loss_and_gradients(params, g, g.labels, mask, weight_decay,
                                    mode=mode, dropout_seed=seed)
    ref_loss, ref_grad = reference_loss_and_gradients(
        params, g, g.labels, mask, weight_decay, mode, seed
    )
    assert loss == ref_loss
    if architecture == "gcn":
        assert np.array_equal(grad, ref_grad)
    else:
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-14)


@settings(max_examples=80, deadline=None)
@given(
    architecture=st.sampled_from(["gcn", "gat"]),
    n=st.integers(min_value=1, max_value=12),
    p=st.floats(min_value=0.0, max_value=1.0),
    mode=st.sampled_from(["eval", "train"]),
    weight_decay=st.sampled_from([0.0, 5e-4]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fused_loss_and_gradients_match_separate_softmax(
    architecture, n, p, mode, weight_decay, seed
):
    # one shifted exponential gives both the loss and dlogits; bit for bit
    # the loss of cross_entropy_loss and the gradient from softmax(logits)
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n=n, p=p)
    mask = rng.random(n) < 0.5
    mask[rng.integers(n)] = True
    idx = np.flatnonzero(mask)
    cfg = ModelConfig(architecture, input_dim=4, hidden_dim=5, num_classes=3,
                      dropout=0.5, num_heads=2, seed=int(rng.integers(100)))
    params = init_params(cfg)
    params = params.from_flat(rng.normal(scale=2.0, size=params.size))
    view = row_view(prepare_operator(g, cfg), idx)
    loss, grad = loss_and_gradients(params, g, g.labels, mask, weight_decay,
                                    mode=mode, dropout_seed=seed, operator=view)

    logits, cache = forward_with_operator(params, view, g.features, mode=mode,
                                          dropout_seed=seed)
    y = g.labels[idx]
    ref_loss = cross_entropy_loss(logits, y, np.ones(idx.size, bool),
                                  weight_decay, params)
    dlogits = softmax(logits)
    dlogits[np.arange(idx.size), y] -= 1.0
    dlogits /= idx.size
    grads = backward_with_operator(params, view, g.features, dlogits, cache)
    ref_grad = np.concatenate([a.ravel() for a in grads])
    ref_grad = ref_grad + weight_decay * params.flat()
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)


class TestAdam:
    def test_first_step_closed_form(self):
        state = AdamState.zeros(1)
        p = np.array([0.0])
        new_p, new_state = adam_step(state, p, np.array([1.0]), lr=0.01)
        expected = -0.01 * (1.0 / (1.0 + 1e-8))
        assert new_p[0] == pytest.approx(expected, rel=1e-12)
        assert new_state.t == 1

    def test_zero_gradient_no_motion(self):
        state = AdamState.zeros(3)
        p = np.array([1.0, -2.0, 0.5])
        for _ in range(5):
            p, state = adam_step(state, p, np.zeros(3), lr=0.1)
        np.testing.assert_array_equal(p, [1.0, -2.0, 0.5])

    def test_identical_streams_identical_trajectories(self):
        rng = np.random.default_rng(2)
        grads = [rng.normal(size=4) for _ in range(10)]
        pa, pb = np.zeros(4), np.zeros(4)
        sa, sb = AdamState.zeros(4), AdamState.zeros(4)
        for gvec in grads:
            pa, sa = adam_step(sa, pa, gvec, lr=0.05)
            pb, sb = adam_step(sb, pb, gvec, lr=0.05)
        np.testing.assert_array_equal(pa, pb)


def easy_sbm(seed=0):
    cfg = SbmConfig(
        num_classes=2, total_nodes=80, rho=1, p_intra=0.2, p_inter=0.02,
        feature_dim=4, class_mean_separation=5.0, feature_std=1.0, seed=seed,
    )
    return generate_sbm(cfg)


class TestTrainLoop:
    def test_patience_zero_single_epoch(self):
        g = easy_sbm()
        split = stratified_split(g, 0.3, 0.3, 2, seed=0)
        _, report = train(
            g, split,
            ModelConfig("gcn", 4, 8, 2, dropout=0.0, seed=0),
            TrainConfig(max_epochs=50, patience=0, seed=0),
        )
        assert report.epochs_run == 1

    def test_validation_label_outside_model_classes_rejected(self):
        g = easy_sbm()  # labels 0 and 1; the model knows class 0 only
        split = stratified_split(g, 0.3, 0.3, 2, seed=0)
        with pytest.raises(GraphValidationError, match="outside"):
            train(g, split, ModelConfig("gcn", 4, 8, 1, dropout=0.0, seed=0),
                  TrainConfig(max_epochs=2, patience=2, seed=0))

    def test_separable_data_fits_train_set(self):
        g = easy_sbm()
        split = stratified_split(g, 0.3, 0.3, 2, seed=1)
        params, _ = train(
            g, split,
            ModelConfig("gcn", 4, 8, 2, dropout=0.0, seed=1),
            TrainConfig(learning_rate=0.01, max_epochs=200, patience=200, seed=1),
        )
        from neubm.models import predict_logits

        pred = predict_logits(params, g).argmax(axis=1)
        train_mask = split.to_masks(g.num_nodes)["train"]
        assert np.mean(pred[train_mask] == g.labels[train_mask]) == 1.0

    def test_bit_deterministic(self):
        g = easy_sbm(seed=3)
        split = stratified_split(g, 0.3, 0.3, 2, seed=2)
        mc = ModelConfig("gcn", 4, 8, 2, dropout=0.5, seed=4)
        tc = TrainConfig(max_epochs=30, patience=30, seed=5)
        p1, r1 = train(g, split, mc, tc)
        p2, r2 = train(g, split, mc, tc)
        assert r1.loss_curve == r2.loss_curve
        assert r1.val_metric_curve == r2.val_metric_curve
        np.testing.assert_array_equal(p1.flat(), p2.flat())

    def test_best_epoch_within_run(self):
        g = easy_sbm(seed=5)
        split = stratified_split(g, 0.3, 0.3, 2, seed=3)
        _, report = train(
            g, split,
            ModelConfig("gcn", 4, 8, 2, dropout=0.0, seed=6),
            TrainConfig(max_epochs=40, patience=10, seed=7),
        )
        assert report.best_epoch <= report.epochs_run
        assert len(report.val_metric_curve) == report.epochs_run + 1

    def test_divergence_reported_with_epoch(self):
        g = easy_sbm(seed=6)
        split = stratified_split(g, 0.3, 0.3, 2, seed=4)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingFailureError) as exc:
                train(
                    g, split,
                    ModelConfig("gcn", 4, 8, 2, dropout=0.0, seed=0),
                    TrainConfig(learning_rate=1e200, max_epochs=50, patience=50,
                                seed=0),
                )
        assert exc.value.epoch is not None

    def test_non_finite_parameters_reported_with_epoch(self):
        # an infinite step makes the epoch-1 parameters non-finite while the
        # loss and gradients stay finite: validation must fail categorized
        g = easy_sbm(seed=6)
        split = stratified_split(g, 0.3, 0.3, 2, seed=4)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingFailureError) as exc:
                train(
                    g, split,
                    ModelConfig("gcn", 4, 8, 2, dropout=0.0, seed=0),
                    TrainConfig(learning_rate=np.inf, max_epochs=5, patience=5,
                                seed=0),
                )
        assert exc.value.epoch == 1

    @pytest.mark.parametrize("architecture", ["gcn", "gat"])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_shared_layer_one_matches_recomputing_it(self, architecture,
                                                     dropout, monkeypatch):
        # each step takes layer 1 from the previous validation forward; a
        # loop that recomputes it every step must agree bit for bit
        import neubm.training as training

        g = easy_sbm(seed=9)
        split = stratified_split(g, 0.3, 0.3, 2, seed=6)
        mc = ModelConfig(architecture, 4, 8, 2, dropout=dropout, num_heads=2,
                         seed=3)
        tc = TrainConfig(learning_rate=0.02, max_epochs=25, patience=25, seed=4)
        shared, report = train(g, split, mc, tc)

        original, passed = training.loss_and_gradients, []

        def recompute(*args, hidden=None, **kwargs):
            passed.append(hidden)
            return original(*args, **kwargs)

        monkeypatch.setattr(training, "loss_and_gradients", recompute)
        recomputed, ref_report = train(g, split, mc, tc)
        assert len(passed) == ref_report.epochs_run
        assert all(h is not None for h in passed)
        np.testing.assert_array_equal(shared.flat(), recomputed.flat())
        assert report.loss_curve == ref_report.loss_curve
        assert report.val_metric_curve == ref_report.val_metric_curve
        assert report.best_epoch == ref_report.best_epoch
        assert len(set(report.val_metric_curve)) > 1  # training moved

    def test_refresh_selection_matches_full_width(self):
        # the refresh hook sees validation rows only; scoring every epoch's
        # parameters on full-width logits must give the same curve
        g = easy_sbm(seed=8)
        split = stratified_split(g, 0.3, 0.3, 2, seed=5)
        masks = split.to_masks(g.num_nodes)
        stats = compute_dataset_stats(g, scope="all_nodes")
        source = train_rows(g, masks["train"])
        neutral = NeutralConfig(node_count_override=40, refresh_every=3)
        hook = _make_refresh_hook(source, stats, neutral, neutral_seed=11)
        seen = []

        def recording_hook(epoch, params, logits):
            seen.append((epoch, params))
            return hook(epoch, params, logits)

        _, report = train(
            g, split,
            ModelConfig("gcn", 4, 8, 2, dropout=0.5, seed=2),
            TrainConfig(max_epochs=20, patience=8, seed=3),
            val_logits_transform=recording_hook,
        )
        full_hook = _make_refresh_hook(source, stats, neutral, neutral_seed=11)
        operator = prepare_operator(g, seen[0][1].config)
        curve = []
        for epoch, params in seen:
            logits, _ = forward_with_operator(params, operator, g.features)
            pred = full_hook(epoch, params, logits).argmax(axis=1)
            curve.append(evaluate(pred, g.labels, mask=masks["val"],
                                  num_classes=2).f1_macro)
        assert tuple(curve) == report.val_metric_curve
        assert report.best_epoch == int(np.argmax(curve))
