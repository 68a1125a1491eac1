import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neubm.errors import ShapeError
from neubm.graph import Graph, build_adjacency, symmetric_normalize, with_values
from neubm.models import (
    ModelConfig,
    LEAKY_SLOPE,
    _attention_backward,
    _attention_layer,
    gat_forward,
    gcn_forward,
    init_params,
    load_checkpoint,
    predict_logits,
    save_checkpoint,
)


def norm_adj_for(graph):
    return symmetric_normalize(build_adjacency(graph, add_self_loops=True))


def random_graph(rng, n=8, d=3, p=0.4, num_classes=3):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pr for pr in pairs if rng.random() < p]
    return Graph(
        num_nodes=n,
        features=rng.normal(size=(n, d)),
        edges=edges,
        labels=rng.integers(0, num_classes, size=n),
        num_classes=num_classes,
    )


class TestGcnForward:
    def test_hand_computed_two_nodes(self):
        # A_hat all 0.5; X=[[1],[0]]; W0=W1=[[1]] -> logits [[0.5],[0.5]]
        g = Graph(num_nodes=2, features=[[1.0], [0.0]], edges=[(0, 1)])
        cfg = ModelConfig("gcn", input_dim=1, hidden_dim=1, num_classes=1, dropout=0.0)
        params = init_params(cfg).from_flat(np.array([1.0, 1.0]))
        logits = gcn_forward(params, norm_adj_for(g), g.features)
        np.testing.assert_allclose(logits, [[0.5], [0.5]])

    def test_zero_weights_zero_logits(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng)
        cfg = ModelConfig("gcn", input_dim=3, hidden_dim=4, num_classes=3, dropout=0.0)
        params = init_params(cfg)
        zero = params.from_flat(np.zeros(params.size))
        logits = gcn_forward(zero, norm_adj_for(g), g.features)
        np.testing.assert_array_equal(logits, np.zeros((8, 3)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, n=5)
        cfg = ModelConfig("gcn", input_dim=3, hidden_dim=4, num_classes=3,
                          dropout=0.0, seed=3)
        params = init_params(cfg)
        base = gcn_forward(params, norm_adj_for(g), g.features)

        perm = rng.permutation(5)
        inv = np.argsort(perm)
        pg = Graph(
            num_nodes=5,
            features=g.features[inv],
            edges=[(perm[u], perm[v]) for u, v in g.edges],
            labels=g.labels[inv] if g.labels is not None else None,
            num_classes=g.num_classes,
        )
        permuted = gcn_forward(params, norm_adj_for(pg), pg.features)
        np.testing.assert_allclose(permuted[perm], base, atol=1e-10)

    def test_eval_mode_ignores_dropout(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng)
        cfg = ModelConfig("gcn", input_dim=3, hidden_dim=4, num_classes=3, dropout=0.5)
        params = init_params(cfg)
        a = gcn_forward(params, norm_adj_for(g), g.features, mode="eval", dropout_seed=1)
        b = gcn_forward(params, norm_adj_for(g), g.features, mode="eval", dropout_seed=2)
        np.testing.assert_array_equal(a, b)

    def test_train_mode_dropout_deterministic(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng)
        cfg = ModelConfig("gcn", input_dim=3, hidden_dim=16, num_classes=3, dropout=0.5)
        params = init_params(cfg)
        a = gcn_forward(params, norm_adj_for(g), g.features, mode="train", dropout_seed=7)
        b = gcn_forward(params, norm_adj_for(g), g.features, mode="train", dropout_seed=7)
        c = gcn_forward(params, norm_adj_for(g), g.features, mode="train", dropout_seed=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dimension_mismatch(self):
        g = Graph(num_nodes=2, features=[[1.0, 2.0], [0.0, 1.0]], edges=[(0, 1)])
        cfg = ModelConfig("gcn", input_dim=3, hidden_dim=2, num_classes=2)
        with pytest.raises(ShapeError):
            gcn_forward(init_params(cfg), norm_adj_for(g), g.features)


class TestGatForward:
    def test_single_node_self_attention(self):
        # lone node: alpha = 1, second layer sees relu(first layer)
        g = Graph(num_nodes=1, features=[[2.0, -1.0]], edges=[])
        cfg = ModelConfig("gat", input_dim=2, hidden_dim=3, num_classes=2,
                          dropout=0.0, num_heads=1, seed=5)
        params = init_params(cfg)
        w0, _, _, w1, _, _ = params.arrays
        expected = np.maximum(g.features @ w0, 0.0) @ w1
        logits = gat_forward(params, g, g.features)
        np.testing.assert_allclose(logits, expected, atol=1e-12)

    def test_identical_neighbors_equal_attention(self):
        # symmetric scores: the two identical neighbors share one alpha value
        feats = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        g = Graph(num_nodes=3, features=feats, edges=[(0, 1), (0, 2)])
        cfg = ModelConfig("gat", input_dim=2, hidden_dim=3, num_classes=2,
                          dropout=0.0, seed=1)
        params = init_params(cfg)
        adj = build_adjacency(g, add_self_loops=True)
        w, a_s, a_d = params.arrays[0:3]
        _, (_, _, alpha) = _attention_layer(feats, w, a_s, a_d, adj)
        dense = with_values(adj, alpha).toarray()
        assert dense[0, 1] == pytest.approx(dense[0, 2], abs=1e-15)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            g = random_graph(rng, n=7)
            cfg = ModelConfig("gat", input_dim=3, hidden_dim=4, num_classes=3,
                              dropout=0.0, num_heads=2, seed=2)
            params = init_params(cfg)
            adj = build_adjacency(g, add_self_loops=True)
            w, a_s, a_d = params.arrays[0:3]
            _, (_, _, alpha) = _attention_layer(g.features, w, a_s, a_d, adj)
            dense = with_values(adj, alpha).toarray()
            np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-12)

    def test_multi_head_shapes(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, n=6)
        cfg = ModelConfig("gat", input_dim=3, hidden_dim=4, num_classes=3,
                          dropout=0.0, num_heads=3, seed=0)
        logits = gat_forward(init_params(cfg), g, g.features)
        assert logits.shape == (6, 3)


def dense_attention_head(h, w, a_src, a_dst, mask):
    """Reference head over a dense N x N neighborhood mask (self-loops set)."""
    g = h @ w
    e = (g @ a_src)[:, None] + (g @ a_dst)[None, :]
    e_act = np.where(e > 0.0, e, LEAKY_SLOPE * e)
    scores = np.where(mask, e_act, -np.inf)
    exps = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = exps / exps.sum(axis=1, keepdims=True)
    return alpha @ g, (g, e, alpha)


def dense_attention_backward(dout, h, w, a_src, a_dst, cache):
    g, e, alpha = cache
    dalpha = dout @ g.T
    dg = alpha.T @ dout
    row_dot = (alpha * dalpha).sum(axis=1, keepdims=True)
    de = alpha * (dalpha - row_dot) * np.where(e > 0.0, 1.0, LEAKY_SLOPE)
    ds_src, ds_dst = de.sum(axis=1), de.sum(axis=0)
    dg += np.outer(ds_src, a_src) + np.outer(ds_dst, a_dst)
    return dg @ w.T, h.T @ dg, g.T @ ds_src, g.T @ ds_dst


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    d_in=st.integers(min_value=1, max_value=4),
    d_out=st.integers(min_value=1, max_value=4),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sparse_attention_matches_dense_reference(n, d_in, d_out, p, seed):
    # p = 0 gives all-isolated nodes; n = 1 a lone self-loop
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pr for pr in pairs if rng.random() < p]
    g = Graph(num_nodes=n, features=rng.normal(size=(n, d_in)), edges=edges)
    w = rng.normal(size=(d_in, d_out))
    a_s, a_d = rng.normal(size=d_out), rng.normal(size=d_out)
    dout = rng.normal(size=(n, d_out))
    adj = build_adjacency(g, add_self_loops=True)
    mask = adj.toarray() > 0

    out, cache = _attention_layer(g.features, w, a_s, a_d, adj)
    ref_out, ref_cache = dense_attention_head(g.features, w, a_s, a_d, mask)
    np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(
        with_values(adj, cache[2]).toarray(), ref_cache[2], rtol=1e-12, atol=1e-14
    )
    grads = _attention_backward(dout, g.features, w, a_s, a_d, adj, cache)
    ref_grads = dense_attention_backward(dout, g.features, w, a_s, a_d, ref_cache)
    for got, want in zip(grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = ModelConfig("gcn", input_dim=4, hidden_dim=5, num_classes=3, seed=9)
        params = init_params(cfg)
        save_checkpoint(params, tmp_path / "model.json")
        loaded = load_checkpoint(tmp_path / "model.json")
        assert loaded.config == cfg
        np.testing.assert_array_equal(loaded.flat(), params.flat())

    def test_predictions_survive_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        g = random_graph(rng)
        cfg = ModelConfig("gat", input_dim=3, hidden_dim=4, num_classes=3,
                          dropout=0.0, num_heads=2, seed=1)
        params = init_params(cfg)
        save_checkpoint(params, tmp_path / "m.json")
        np.testing.assert_array_equal(
            predict_logits(load_checkpoint(tmp_path / "m.json"), g),
            predict_logits(params, g),
        )
