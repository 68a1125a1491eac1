import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neubm.errors import ShapeError
from neubm.graph import (
    Graph,
    build_adjacency,
    csr_rows,
    symmetric_normalize,
    with_values,
)
from neubm.models import (
    ModelConfig,
    LEAKY_SLOPE,
    _attention_backward,
    _attention_layer,
    _dropout_mask,
    _first_row_max,
    backward_with_operator,
    forward_with_operator,
    init_params,
    load_checkpoint,
    predict_logits,
    prepare_operator,
    row_view,
    save_checkpoint,
    segments,
)


def forward(params, graph, mode="eval", dropout_seed=0):
    logits, _ = forward_with_operator(
        params, prepare_operator(graph, params.config), graph.features,
        mode=mode, dropout_seed=dropout_seed,
    )
    return logits


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
        logits = forward(params, g)
        np.testing.assert_allclose(logits, [[0.5], [0.5]])

    def test_zero_weights_zero_logits(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng)
        cfg = ModelConfig("gcn", input_dim=3, hidden_dim=4, num_classes=3, dropout=0.0)
        params = init_params(cfg)
        zero = params.from_flat(np.zeros(params.size))
        logits = forward(zero, g)
        np.testing.assert_array_equal(logits, np.zeros((8, 3)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, n=5)
        cfg = ModelConfig("gcn", input_dim=3, hidden_dim=4, num_classes=3,
                          dropout=0.0, seed=3)
        params = init_params(cfg)
        base = forward(params, g)

        perm = rng.permutation(5)
        inv = np.argsort(perm)
        pg = Graph(
            num_nodes=5,
            features=g.features[inv],
            edges=[(perm[u], perm[v]) for u, v in g.edges],
            labels=g.labels[inv] if g.labels is not None else None,
            num_classes=g.num_classes,
        )
        permuted = forward(params, pg)
        np.testing.assert_allclose(permuted[perm], base, atol=1e-10)

    def test_eval_mode_ignores_dropout(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng)
        cfg = ModelConfig("gcn", input_dim=3, hidden_dim=4, num_classes=3, dropout=0.5)
        params = init_params(cfg)
        a = forward(params, g, mode="eval", dropout_seed=1)
        b = forward(params, g, mode="eval", dropout_seed=2)
        np.testing.assert_array_equal(a, b)

    def test_train_mode_dropout_deterministic(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng)
        cfg = ModelConfig("gcn", input_dim=3, hidden_dim=16, num_classes=3, dropout=0.5)
        params = init_params(cfg)
        a = forward(params, g, mode="train", dropout_seed=7)
        b = forward(params, g, mode="train", dropout_seed=7)
        c = forward(params, g, mode="train", dropout_seed=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dimension_mismatch(self):
        g = Graph(num_nodes=2, features=[[1.0, 2.0], [0.0, 1.0]], edges=[(0, 1)])
        cfg = ModelConfig("gcn", input_dim=3, hidden_dim=2, num_classes=2)
        with pytest.raises(ShapeError):
            forward(init_params(cfg), g)


def reference_gcn_pass(params, norm_adj, features, mode, dropout_seed):
    """The former GCN pass: A_hat . X per call, layer 2 as (A_hat . h1) . W1."""
    w0, w1 = params.arrays
    ax = norm_adj @ features
    z1 = ax @ w0
    a1 = np.maximum(z1, 0.0)
    if mode == "train" and params.config.dropout > 0.0:
        mask = _dropout_mask(
            np.random.default_rng(dropout_seed), a1.shape, params.config.dropout
        )
    else:
        mask = None
    h1 = a1 * mask if mask is not None else a1
    ah = norm_adj @ h1
    return ah @ w1, (ax, z1, mask, h1, ah)


def reference_gcn_backward(params, norm_adj, dlogits, cache):
    w0, w1 = params.arrays
    ax, z1, mask, h1, ah = cache
    dw1 = ah.T @ dlogits
    dh1 = norm_adj @ (dlogits @ w1.T)
    da1 = dh1 * mask if mask is not None else dh1
    dz1 = da1 * (z1 > 0.0)
    return ax.T @ dz1, dw1


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    d_in=st.integers(min_value=1, max_value=4),
    hidden=st.integers(min_value=1, max_value=6),
    classes=st.integers(min_value=1, max_value=5),
    p=st.floats(min_value=0.0, max_value=1.0),
    mode=st.sampled_from(["eval", "train"]),
    dropout_seed=st.integers(min_value=0, max_value=2**31 - 1),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gcn_pass_matches_reference(n, d_in, hidden, classes, p, mode,
                                    dropout_seed, seed):
    # p = 0 gives all-isolated nodes; n = 1 a lone self-loop
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pr for pr in pairs if rng.random() < p]
    g = Graph(num_nodes=n, features=rng.normal(size=(n, d_in)), edges=edges)
    cfg = ModelConfig("gcn", input_dim=d_in, hidden_dim=hidden,
                      num_classes=classes, dropout=0.5)
    params = init_params(cfg)
    params = params.from_flat(rng.normal(size=params.size))
    dlogits = rng.normal(size=(n, classes))

    operator = prepare_operator(g, cfg)
    logits, cache = forward_with_operator(
        params, operator, g.features, mode=mode, dropout_seed=dropout_seed
    )
    grads = backward_with_operator(params, operator, g.features, dlogits, cache)
    norm_adj = symmetric_normalize(build_adjacency(g, add_self_loops=True))
    ref_logits, ref_cache = reference_gcn_pass(
        params, norm_adj, g.features, mode, dropout_seed
    )
    ref_grads = reference_gcn_backward(params, norm_adj, dlogits, ref_cache)
    np.testing.assert_allclose(logits, ref_logits, rtol=1e-12, atol=1e-14)
    for got, want in zip(grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


class TestGatForward:
    def test_single_node_self_attention(self):
        # lone node: alpha = 1, second layer sees relu(first layer)
        g = Graph(num_nodes=1, features=[[2.0, -1.0]], edges=[])
        cfg = ModelConfig("gat", input_dim=2, hidden_dim=3, num_classes=2,
                          dropout=0.0, num_heads=1, seed=5)
        params = init_params(cfg)
        w0, _, _, w1, _, _ = params.arrays
        expected = np.maximum(g.features @ w0, 0.0) @ w1
        logits = forward(params, g)
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
        _, (_, _, att, _) = _attention_layer(feats, w, a_s, a_d, segments(adj))
        dense = att.toarray()
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
            _, (_, _, att, _) = _attention_layer(g.features, w, a_s, a_d,
                                                 segments(adj))
            dense = att.toarray()
            np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("d_in,hidden", [(2, 4), (3, 3), (4, 2)])
    def test_layer_one_cache_holds_the_narrower_side(self, d_in, hidden):
        # d_in < hidden: the head cache holds A_alpha . X (n x d_in) and
        # the head returns (A_alpha . X) . W; otherwise g = X . W
        rng = np.random.default_rng(d_in)
        g = random_graph(rng, n=6, d=d_in)
        cfg = ModelConfig("gat", input_dim=d_in, hidden_dim=hidden,
                          num_classes=3, dropout=0.0, num_heads=2, seed=1)
        params = init_params(cfg)
        _, (heads, *_) = forward_with_operator(
            params, prepare_operator(g, cfg), g.features
        )
        for i, (side, _, att, out) in enumerate(heads):
            w = params.arrays[3 * i]
            if d_in < hidden:
                np.testing.assert_array_equal(side, att @ g.features)
                np.testing.assert_array_equal(out, side @ w)
            else:
                np.testing.assert_array_equal(side, g.features @ w)
                np.testing.assert_array_equal(out, att @ side)

    def test_multi_head_shapes(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, n=6)
        cfg = ModelConfig("gat", input_dim=3, hidden_dim=4, num_classes=3,
                          dropout=0.0, num_heads=3, seed=0)
        logits = forward(init_params(cfg), g)
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


def dense_attention_magnitudes(dout, h, w, a_src, a_dst, cache):
    """The dense head and its backward with every sum taken over absolute
    terms: per output (out, alpha, dh, dw, da_src, da_dst), the size of
    the terms its float64 rounding error scales with."""
    g, e, alpha = cache
    mg = np.abs(h) @ np.abs(w)
    mdalpha = np.abs(dout) @ mg.T
    mde = (alpha * (mdalpha + (alpha * mdalpha).sum(axis=1, keepdims=True))
           * np.where(e > 0.0, 1.0, LEAKY_SLOPE))
    ms_src, ms_dst = mde.sum(axis=1), mde.sum(axis=0)
    mdg = (alpha.T @ np.abs(dout) + np.outer(ms_src, np.abs(a_src))
           + np.outer(ms_dst, np.abs(a_dst)))
    return (alpha @ mg, np.ones_like(alpha), mdg @ np.abs(w).T,
            np.abs(h).T @ mdg, mg.T @ ms_src, mg.T @ ms_dst)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    d_in=st.integers(min_value=1, max_value=4),
    d_out=st.integers(min_value=1, max_value=4),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# a head over every node aggregates its input when d_in < d_out and its
# projection otherwise, ties included
@example(n=7, d_in=2, d_out=4, p=0.5, seed=1)
@example(n=7, d_in=3, d_out=3, p=0.5, seed=2)
@example(n=7, d_in=4, d_out=2, p=0.5, seed=3)
def test_sparse_attention_matches_dense_reference(n, d_in, d_out, p, seed):
    # p = 0 gives all-isolated nodes; n = 1 a lone self-loop. The atol of
    # each output scales with its largest summed-term magnitude: with
    # unit-normal weights the terms reach ~10, and an absolute 1e-14 failed
    # on about 1 run in 50 where a sum cancels to near 0. Over 48,000 random
    # cases the error stayed below 3 eps of that magnitude.
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pr for pr in pairs if rng.random() < p]
    g = Graph(num_nodes=n, features=rng.normal(size=(n, d_in)), edges=edges)
    w = rng.normal(size=(d_in, d_out))
    a_s, a_d = rng.normal(size=d_out), rng.normal(size=d_out)
    dout = rng.normal(size=(n, d_out))
    adj = build_adjacency(g, add_self_loops=True)
    mask = adj.toarray() > 0

    segs = segments(adj)
    out, cache = _attention_layer(g.features, w, a_s, a_d, segs)
    ref_out, ref_cache = dense_attention_head(g.features, w, a_s, a_d, mask)
    got = (out, cache[2].toarray(),
           *_attention_backward(dout, g.features, w, a_s, a_d, cache, segs))
    want = (ref_out, ref_cache[2],
            *dense_attention_backward(dout, g.features, w, a_s, a_d, ref_cache))
    magnitudes = dense_attention_magnitudes(dout, g.features, w, a_s, a_d,
                                            ref_cache)
    for a, b, m in zip(got, want, magnitudes):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14 * m.max())


def reference_attention_backward(dout, h, w, a_src, a_dst, adj, cache):
    """The former per-edge head backward: gathers dout[rows] and g[cols],
    two (edges x width) arrays, on the full adjacency. g = h . W and the
    scores e are recomputed, whichever side the head cache holds; only the
    attention coefficients come from the cache."""
    att = cache[2]
    g = h @ w
    alpha, rows, cols = att.data, csr_rows(adj), adj.indices
    e = (g @ a_src)[rows] + (g @ a_dst)[cols]
    dalpha = np.einsum("ij,ij->i", dout[rows], g[cols])
    dg = att.T @ dout
    row_dot = np.add.reduceat(alpha * dalpha, adj.indptr[:-1])
    de = alpha * (dalpha - row_dot[rows]) * np.where(e > 0.0, 1.0, LEAKY_SLOPE)
    ds_src = np.add.reduceat(de, adj.indptr[:-1])
    ds_dst = np.bincount(cols, weights=de, minlength=g.shape[0])
    dg += np.outer(ds_src, a_src) + np.outer(ds_dst, a_dst)
    return dg @ w.T, h.T @ dg, g.T @ ds_src, g.T @ ds_dst


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    d_in=st.integers(min_value=1, max_value=4),
    d_out=st.integers(min_value=1, max_value=6),
    p=st.floats(min_value=0.0, max_value=1.0),
    rows=st.sampled_from(["one", "all", "some"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=9, d_in=2, d_out=5, p=0.5, rows="some", seed=4)
@example(n=9, d_in=3, d_out=3, p=0.5, rows="some", seed=5)
@example(n=9, d_in=4, d_out=2, p=0.5, rows="some", seed=6)
@example(n=9, d_in=2, d_out=5, p=0.5, rows="one", seed=7)
def test_attention_backward_matches_per_edge_reference(n, d_in, d_out, p, rows,
                                                       seed):
    # the row view's CSR is rectangular (len(rows) x n); node 0 is isolated.
    # A head on given rows aggregates its projection whatever the widths, so
    # its rows match the full operator's bit for bit; a head over every node
    # (rows None, layer 1) aggregates its input when d_in < d_out.
    # Weights at about the scale init_params draws: with unit-normal weights
    # the summed terms reach ~10, both kernels land within about 1e-14 of
    # an extended-precision reference, and the absolute atol splits them
    # in about 1 case in 270.
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n)]
    edges = [pr for pr in pairs if rng.random() < p]
    g = Graph(num_nodes=n, features=rng.normal(size=(n, d_in)), edges=edges)
    w = rng.normal(size=(d_in, d_out)) / np.sqrt(d_in)
    a_s, a_d = rng.normal(size=(2, d_out)) / np.sqrt(d_out)
    if rows == "one":
        idx = np.array([rng.integers(n)])
    elif rows == "all":
        idx = np.arange(n)
    else:
        idx = np.flatnonzero(rng.random(n) < 0.5)
    dout = rng.normal(size=(idx.size, d_out))
    adj = build_adjacency(g, add_self_loops=True)

    row_segs, segs = segments(adj[idx]), segments(adj)
    out, cache = _attention_layer(g.features, w, a_s, a_d, row_segs, idx)
    grads = _attention_backward(dout, g.features, w, a_s, a_d, cache, row_segs,
                                idx)
    full, full_cache = _attention_layer(g.features, w, a_s, a_d, segs,
                                        slice(None))
    assert np.array_equal(out, full[idx])
    full_dout = np.zeros((n, d_out))
    full_dout[idx] = dout
    ref_grads = reference_attention_backward(
        full_dout, g.features, w, a_s, a_d, adj, full_cache
    )
    for got, want in zip(grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    every, every_cache = _attention_layer(g.features, w, a_s, a_d, segs)
    np.testing.assert_allclose(every, full, rtol=1e-12, atol=1e-14)
    every_grads = _attention_backward(full_dout, g.features, w, a_s, a_d,
                                      every_cache, segs)
    for got, want in zip(every_grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("seed", range(4))
def test_head_cache_slopes_are_the_leaky_relu_branches(seed):
    # the cache holds exactly 1.0 where the score is positive and
    # LEAKY_SLOPE elsewhere, as np.where gives them; scores recomputed here
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n=30, d=4, p=0.3)
    adj = build_adjacency(g, add_self_loops=True)
    w = rng.normal(size=(4, 3))
    a_s, a_d = rng.normal(size=(2, 3))
    _, (_, slope, att, _) = _attention_layer(g.features, w, a_s, a_d,
                                             segments(adj), slice(None))
    proj = g.features @ w
    e = (proj @ a_s)[csr_rows(adj)] + (proj @ a_d)[adj.indices]
    assert (e > 0.0).any() and (e < 0.0).any()
    np.testing.assert_array_equal(slope, np.where(e > 0.0, 1.0, LEAKY_SLOPE))


def reference_first_row_max(att):
    """The former top-entry search: a row-max mask, np.where over
    np.arange(E), and np.minimum.reduceat per row."""
    alpha, starts = att.data, att.indptr[:-1]
    is_max = alpha == np.maximum.reduceat(alpha, starts)[csr_rows(att)]
    return np.minimum.reduceat(np.where(is_max, np.arange(alpha.size), alpha.size),
                               starts)


@settings(max_examples=150, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                     max_size=30),
    levels=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(lengths=[1, 1, 1], levels=1, seed=0)  # single-entry rows only
@example(lengths=[4, 1, 5, 2], levels=1, seed=1)  # all entries of a row tie
def test_first_row_max_matches_reference(lengths, levels, seed):
    # values from a few levels force ties within a row; the first of the
    # tied largest entries must win, as before
    rng = np.random.default_rng(seed)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    values = rng.integers(1, levels + 1, size=indptr[-1]) / levels
    indices = np.concatenate([np.sort(rng.choice(6, size=k, replace=False))
                              for k in lengths])
    att = sp.csr_matrix((values, indices, indptr), shape=(len(lengths), 6))
    got = _first_row_max(att.data, att.indptr[:-1], np.diff(att.indptr))
    np.testing.assert_array_equal(got, reference_first_row_max(att))


@settings(max_examples=120, deadline=None)
@given(
    architecture=st.sampled_from(["gcn", "gat"]),
    n=st.integers(min_value=1, max_value=12),
    p=st.floats(min_value=0.0, max_value=1.0),
    rows=st.sampled_from(["one", "all", "some"]),
    mode=st.sampled_from(["eval", "train"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_row_view_logits_are_full_rows(architecture, n, p, rows, mode, seed):
    # p = 0 gives all-isolated nodes; n = 1 a lone self-loop
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pr for pr in pairs if rng.random() < p]
    g = Graph(num_nodes=n, features=rng.normal(size=(n, 3)), edges=edges)
    cfg = ModelConfig(architecture, input_dim=3, hidden_dim=4, num_classes=3,
                      dropout=0.5, num_heads=2, seed=int(rng.integers(100)))
    params = init_params(cfg)
    if rows == "one":
        idx = np.array([rng.integers(n)])
    elif rows == "all":
        idx = np.arange(n)
    else:
        idx = np.flatnonzero(rng.random(n) < 0.5)
    operator = prepare_operator(g, cfg)
    full, _ = forward_with_operator(params, operator, g.features, mode=mode,
                                    dropout_seed=seed)
    view, _ = forward_with_operator(params, row_view(operator, idx), g.features,
                                    mode=mode, dropout_seed=seed)
    assert view.shape == (idx.size, 3)
    assert np.array_equal(view, full[idx])


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
