import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neubm.datasets import SbmConfig, generate_sbm, stratified_split
from neubm.errors import DataError, NumericError
from neubm.graph import (
    Graph,
    build_adjacency,
    csr_rows,
    symmetric_normalize,
    with_values,
)
from neubm.models import (
    ModelConfig,
    ModelParams,
    LEAKY_SLOPE,
    _attention_backward,
    _attention_layer,
    _dropout_mask,
    _first_row_max,
    _row_adj_t,
    _slopes,
    backward_with_operator,
    forward_with_operator,
    init_params,
    load_checkpoint,
    predict_logits,
    prepare_operator,
    row_view,
    save_checkpoint,
)
from neubm.training import loss_and_gradients


def forward(params, graph, mode="eval", dropout_seed=0):
    logits, _ = forward_with_operator(
        params, prepare_operator(graph, params.config), mode=mode,
        dropout_seed=dropout_seed,
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

    @pytest.mark.parametrize("architecture", ["gcn", "gat"])
    def test_dimension_mismatch(self, architecture):
        # params whose input_dim differs from the width of the operator's x
        # fail the width check (a data error, exit 3), not a matmul inside
        # the pass, on the full operator and on a row view
        g = Graph(num_nodes=2, features=[[1.0, 2.0], [0.0, 1.0]], edges=[(0, 1)])
        cfg = ModelConfig(architecture, input_dim=3, hidden_dim=2, num_classes=2)
        operator = prepare_operator(g, cfg)
        for op in (operator, row_view(operator, np.array([1]))):
            with pytest.raises(DataError, match="width 2, model expects 3"):
                forward_with_operator(init_params(cfg), op)
        assert DataError.exit_code == 3


class StubWords:
    """A generator stand-in whose bit generator hands out the given raw
    64-bit words, recording how many each call asks for."""

    def __init__(self, *words):
        self.words = list(words)
        self.requests = []
        self.bit_generator = self

    def random_raw(self, size):
        self.requests.append(size)
        out, self.words = self.words[:size], self.words[size:]
        return np.array(out, dtype=np.uint64)


def word(*entry_bytes):
    """The raw word whose bytes, least significant first, are entry_bytes."""
    return int.from_bytes(bytes(entry_bytes).ljust(8, b"\0"), "little")


class TestDropoutMask:
    def test_tie_rounds(self):
        # keep = 0x804020 / 2**24 has the base-256 digits 0x80, 0x40, 0x20:
        # a byte below a digit keeps, above drops, equal reads one more
        # byte, in index order; equal to the last digit drops (u >= keep)
        keep = 0x804020 / 2**24
        rng = StubWords(
            word(0x7F, 0x81, 0x80, 0x00, 0xFF, 0x80, 0x80, 0x80),
            word(0x80, 0x80, 0x12, 0x80),  # entries 8-11
            word(0x3F, 0x41, 0x40, 0x40, 0x00, 0x40, 0xFF),  # ties 2, 5-9, 11
            word(0x1F, 0x20, 0x21),  # ties 6, 7, 9
        )
        mask = _dropout_mask(rng, (3, 4), 1.0 - keep)
        assert rng.requests == [2, 1, 1] and not rng.words
        expected = np.zeros(12)
        expected[[0, 2, 3, 6, 8, 10]] = 1.0 / keep
        np.testing.assert_array_equal(mask, expected.reshape(3, 4))

    def test_half_rate_draws_one_round(self):
        # keep = 1/2 has the one digit 0x80: a tie drops, nothing draws again
        rng = StubWords(word(0x7F, 0x80, 0x81, 0x00, 0xFF, 0x80, 0x01, 0x80))
        mask = _dropout_mask(rng, (8,), 0.5)
        assert rng.requests == [1]
        np.testing.assert_array_equal(mask, [2, 0, 0, 2, 0, 0, 2, 0])

    @pytest.mark.parametrize("rate", [0.1, 1 / 3, 0.5, 0.7])
    def test_kept_fraction_is_keep(self, rate):
        # 10**6 entries: the kept count lies within 5 binomial sigma of its mean
        mask = _dropout_mask(np.random.default_rng(11), (1000, 1000), rate)
        keep = 1.0 - rate
        kept = np.count_nonzero(mask)
        assert abs(kept - 10**6 * keep) < 5 * np.sqrt(10**6 * keep * rate)
        assert set(np.unique(mask)) == {0.0, 1.0 / keep}

    def test_rate_below_float_resolution_keeps_every_entry(self):
        rate = 1e-17
        assert 1.0 - rate == 1.0
        active = np.array([[True, False, True]])
        np.testing.assert_array_equal(
            _dropout_mask(np.random.default_rng(0), (1, 3), rate, active=active),
            [[1.0, 0.0, 1.0]])

    def test_same_seed_same_mask_whatever_active(self):
        # inactive entries are dropped after the draw, so they move no draw
        active = np.random.default_rng(1).random((40, 30)) < 0.5
        full = _dropout_mask(np.random.default_rng(5), (40, 30), 0.3)
        again = _dropout_mask(np.random.default_rng(5), (40, 30), 0.3)
        gated = _dropout_mask(np.random.default_rng(5), (40, 30), 0.3, active=active)
        np.testing.assert_array_equal(full, again)
        np.testing.assert_array_equal(gated, full * active)
        assert not np.array_equal(
            full, _dropout_mask(np.random.default_rng(6), (40, 30), 0.3))

    def test_pinned_prefix(self):
        # byte j of raw word w is entry 8w + j in C order
        mask = _dropout_mask(np.random.default_rng(0), (2, 8), 0.5)
        np.testing.assert_array_equal(mask.ravel(), [
            2, 0, 0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0, 2, 2])


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
        params, operator, mode=mode, dropout_seed=dropout_seed
    )
    grads = backward_with_operator(params, operator, dlogits, cache)
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

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_overflowing_scores_raise_numeric_error(self, mode):
        # scores of order 1e160 * 1e150^2 overflow, s_src + s_dst gives
        # inf - inf and a whole row of coefficients is NaN: a NumericError,
        # not an IndexError from the backward's top-entry search
        rng = np.random.default_rng(0)
        g = Graph(num_nodes=6, features=rng.normal(size=(6, 4)) * 1e160,
                  edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
                  labels=np.arange(6) % 2, num_classes=2)
        params = init_params(ModelConfig("gat", 4, 8, 2, dropout=0.0, seed=0))
        params = ModelParams(params.config, tuple(a * 1e150 for a in params.arrays))
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match="attention"):
                loss_and_gradients(params, prepare_operator(g, params.config),
                                   g.labels, mode=mode)

    def test_identical_neighbors_equal_attention(self):
        # symmetric scores: the two identical neighbors share one alpha value
        feats = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        g = Graph(num_nodes=3, features=feats, edges=[(0, 1), (0, 2)])
        cfg = ModelConfig("gat", input_dim=2, hidden_dim=3, num_classes=2,
                          dropout=0.0, seed=1)
        params = init_params(cfg)
        adj = build_adjacency(g, add_self_loops=True)
        w, a_s, a_d = params.arrays[0:3]
        _, (_, _, att, _, _) = _attention_layer(feats, w, a_s, a_d, adj)
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
            _, (_, _, att, _, _) = _attention_layer(g.features, w, a_s, a_d, adj)
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
        _, ((heads, z1), *_) = forward_with_operator(params, prepare_operator(g, cfg))
        for i, (side, _, att, out, _) in enumerate(heads):
            w = params.arrays[3 * i]
            assert np.shares_memory(out, z1)  # each head's output is held once
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

    out, cache = _attention_layer(g.features, w, a_s, a_d, adj)
    ref_out, ref_cache = dense_attention_head(g.features, w, a_s, a_d, mask)
    got = (out, cache[2].toarray(),
           *_attention_backward(dout, g.features, w, a_s, a_d, cache, adj))
    want = (ref_out, ref_cache[2],
            *dense_attention_backward(dout, g.features, w, a_s, a_d, ref_cache))
    magnitudes = dense_attention_magnitudes(dout, g.features, w, a_s, a_d,
                                            ref_cache)
    for a, b, m in zip(got, want, magnitudes):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14 * m.max())


def reference_attention_backward(dout, h, w, a_src, a_dst, adj, cache,
                                 absolute=False):
    """The former per-edge head backward: gathers dout[rows] and g[cols],
    two (edges x width) arrays, on the full adjacency. g = h . W and the
    scores e are recomputed, whichever side the head cache holds; only the
    attention coefficients come from the cache. It computes in the dtype
    of its inputs, so np.longdouble inputs give an extended-precision
    reference. With ``absolute``, every input enters as its size and the
    one difference as a sum, with the scores' slopes kept: per gradient
    entry, the sum of its terms' sizes, which rounding errors scale with."""
    att = cache[2]
    g = h @ w
    alpha, rows, cols = att.data, csr_rows(adj), adj.indices
    slope = np.where((g @ a_src)[rows] + (g @ a_dst)[cols] > 0.0, 1.0, LEAKY_SLOPE)
    if absolute:
        dout, h, w, a_src, a_dst = (abs(x) for x in (dout, h, w, a_src, a_dst))
        g = h @ w
    dalpha = np.einsum("ij,ij->i", dout[rows], g[cols])
    dg = att.T @ dout
    row_dot = np.add.reduceat(alpha * dalpha, adj.indptr[:-1])
    de = alpha * (dalpha + row_dot[rows] if absolute else dalpha - row_dot[rows]) * slope
    ds_src = np.add.reduceat(de, adj.indptr[:-1])
    ds_dst = np.zeros(g.shape[0], dtype=de.dtype)  # bincount rounds to float64
    np.add.at(ds_dst, cols, de)
    dg += np.outer(ds_src, a_src) + np.outer(ds_dst, a_dst)
    return dg @ w.T, h.T @ dg, g.T @ ds_src, g.T @ ds_dst


def assert_within(got, want, atol, rtol=1e-12):
    """assert_allclose's test, |got - want| <= atol + rtol |want|, with an
    atol per entry."""
    excess = np.abs(got - want) - (atol + rtol * np.abs(want))
    assert (excess <= 0).all(), f"off by {float(excess.max()):.3g} past the bound"


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
@example(n=12, d_in=1, d_out=5, p=1.0, rows="one", seed=1821)
@example(n=5, d_in=1, d_out=3, p=0.25, rows="all", seed=39095)
@example(n=8, d_in=1, d_out=3, p=0.40625, rows="one", seed=8207046)
def test_attention_backward_matches_per_edge_reference(n, d_in, d_out, p, rows,
                                                       seed):
    # the row view's CSR is rectangular (len(rows) x n); node 0 is isolated.
    # A head on given rows aggregates its projection whatever the widths, so
    # its rows match the full operator's bit for bit; a head over every node
    # (rows None, layer 1) aggregates its input when d_in < d_out.
    # Weights at about the scale init_params draws. The reference runs in
    # extended precision: in float64 its own rounding, up to 2e-14 where a
    # row's score gradients cancel (n=12, d_in=1, p=1, one row), broke an
    # absolute atol against a kernel that got the exact 0. The kernel's own
    # error is bounded as in Higham (2002), ch. 3-4: an entry whose terms
    # each pass through at most k roundings is off by at most gamma_k =
    # k u / (1 - k u) times the sum of its terms' sizes, which the
    # reference gives per entry. Along the kernel's longest chain (g, the
    # forward's aggregate, the row dot, the score-gradient sums, the
    # final products) k <= 2 d_in + 3 n + 2 d_out + 10, plus n + 2 for its
    # use of sum(alpha) = 1, which the forward's coefficients meet to
    # within gamma_n. An absolute atol of 1e-14 sat below the kernel's own
    # error where the summed terms reach 1-10 (the last two examples).
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

    row_adj = adj[idx]
    out, cache = _attention_layer(g.features, w, a_s, a_d, row_adj, idx)
    grads = _attention_backward(dout, g.features, w, a_s, a_d, cache, row_adj,
                                idx)
    full, full_cache = _attention_layer(g.features, w, a_s, a_d, adj,
                                        slice(None))
    assert np.array_equal(out, full[idx])
    full_dout = np.zeros((n, d_out))
    full_dout[idx] = dout
    inputs = [np.asarray(x, dtype=np.longdouble)
              for x in (full_dout, g.features, w, a_s, a_d)]
    ref_grads = reference_attention_backward(*inputs, adj, full_cache)
    k = 2 * d_in + 4 * n + 2 * d_out + 12
    u = np.finfo(np.float64).eps / 2
    atols = [k * u / (1 - k * u) * size for size in reference_attention_backward(
        *inputs, adj, full_cache, absolute=True)]
    for got, want, atol in zip(grads, ref_grads, atols):
        assert_within(got, want, atol)

    every, every_cache = _attention_layer(g.features, w, a_s, a_d, adj)
    np.testing.assert_allclose(every, full, rtol=1e-12, atol=1e-14)
    every_grads = _attention_backward(full_dout, g.features, w, a_s, a_d,
                                      every_cache, adj)
    for got, want, atol in zip(every_grads, ref_grads, atols):
        assert_within(got, want, atol)


@pytest.mark.parametrize("seed", range(4))
def test_head_cache_slopes_are_the_leaky_relu_branches(seed):
    # the cache holds each score's sign as a bool, from which the slopes
    # are exactly 1.0 where the score is positive and LEAKY_SLOPE elsewhere,
    # as np.where gives them; scores recomputed here
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n=30, d=4, p=0.3)
    adj = build_adjacency(g, add_self_loops=True)
    w = rng.normal(size=(4, 3))
    a_s, a_d = rng.normal(size=(2, 3))
    _, (_, pos, att, _, _) = _attention_layer(g.features, w, a_s, a_d,
                                              adj, slice(None))
    assert pos.dtype == bool
    slope = _slopes(pos)
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
    starts = att.indptr[:-1]
    got = _first_row_max(att.data, np.maximum.reduceat(att.data, starts), starts,
                         np.diff(att.indptr))
    np.testing.assert_array_equal(got, reference_first_row_max(att))


@pytest.mark.parametrize("graph", ["random", "criterion-5"])
@pytest.mark.parametrize("width", [2, 24])
def test_row_max_from_softmax_sums(graph, width):
    # the backward takes each row's largest coefficient as 1 / (its softmax
    # sum) from the forward; it must be the row maximum bit for bit, and so
    # find the same top entries, on a full layer (narrow when width exceeds
    # the features) and on a row view
    rng = np.random.default_rng(5)
    if graph == "random":
        g = random_graph(rng, n=60, d=4, p=0.1)
    else:
        g = generate_sbm(SbmConfig(
            num_classes=5, total_nodes=2000, rho=10, p_intra=0.02,
            p_inter=0.006, feature_dim=16, class_mean_separation=0.8,
            seed=2024,
        ))
    adj = build_adjacency(g, add_self_loops=True)
    w = rng.normal(size=(g.features.shape[1], width))
    a_s, a_d = rng.normal(size=(2, width))
    idx = np.flatnonzero(rng.random(g.num_nodes) < 0.3)
    for rows, row_adj in [(None, adj), (idx, adj[idx])]:
        _, (_, _, att, _, sums) = _attention_layer(g.features, w, a_s, a_d,
                                                   row_adj, rows)
        starts, sizes = att.indptr[:-1], np.diff(att.indptr)
        np.testing.assert_array_equal(1.0 / sums,
                                      np.maximum.reduceat(att.data, starts))
        np.testing.assert_array_equal(
            _first_row_max(att.data, 1.0 / sums, starts, sizes),
            reference_first_row_max(att))


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
    view_operator = row_view(operator, idx)
    assert type(view_operator) is type(operator)
    full, _ = forward_with_operator(params, operator, mode=mode,
                                    dropout_seed=seed)
    view, _ = forward_with_operator(params, view_operator, mode=mode,
                                    dropout_seed=seed)
    assert view.shape == (idx.size, 3)
    assert np.array_equal(view, full[idx])


@pytest.mark.parametrize("graph", ["random", "criterion-5"])
def test_transposed_row_product_matches_a_stored_transpose(graph):
    # the GCN backward's row_adj.T @ dlogits runs scipy's CSC kernel over
    # row_adj's entries; it must equal, bit for bit and zero sign for zero
    # sign, the product with the transpose stored as a CSR
    # (row_adj.T.tocsr()), and for the full operator with the symmetric
    # A_hat itself
    rng = np.random.default_rng(11)
    if graph == "random":
        g = random_graph(rng, n=60, d=4, p=0.1, num_classes=5)
    else:
        g = generate_sbm(SbmConfig(
            num_classes=5, total_nodes=2000, rho=10, p_intra=0.02,
            p_inter=0.006, feature_dim=16, class_mean_separation=0.8,
            seed=2024,
        ))
    cfg = ModelConfig("gcn", input_dim=g.features.shape[1], hidden_dim=8,
                      num_classes=5)
    params = init_params(cfg)
    operator = prepare_operator(g, cfg)
    split = stratified_split(g, 0.1, 0.1, 1, seed=0)
    views = [row_view(operator, rows) for rows in (split.train, split.val)]
    for op in [operator, *views]:
        d = rng.normal(size=(op.row_adj.shape[0], 5))
        d[rng.random(d.shape) < 0.2] = -0.0
        got = op.row_adj.T @ d
        wants = [op.row_adj.T.tocsr() @ d]
        # a backward makes a view store its transpose, which later ones read
        logits, cache = forward_with_operator(params, op, mode="train")
        backward_with_operator(params, op, np.ones_like(logits), cache)
        if op is operator:
            wants.append(operator.adj @ d)
            assert op.cache == {}
        else:
            stored = op.cache["row_adj_t"]
            assert sp.isspmatrix_csr(stored) and _row_adj_t(op) is stored
            wants.append(stored @ d)
        for want in wants:
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("architecture", ["gcn", "gat"])
def test_only_gcn_row_views_store_a_transpose(architecture):
    # a forward and backward through the full operator and through a row
    # view add no array to either, but the transpose of a GCN view
    rng = np.random.default_rng(4)
    g = random_graph(rng, n=30, d=4, p=0.2, num_classes=3)
    cfg = ModelConfig(architecture, input_dim=4, hidden_dim=6, num_classes=3)
    params = init_params(cfg)
    operator = prepare_operator(g, cfg)
    view = row_view(operator, np.arange(0, 30, 3))
    fields = {name: id(value) for name, value in vars(operator).items()}
    for op in (operator, view):
        logits, cache = forward_with_operator(params, op, mode="train")
        backward_with_operator(params, op, np.ones_like(logits), cache)
    assert {name: id(value) for name, value in vars(operator).items()} == fields
    assert operator.cache == {}
    assert list(view.cache) == (["row_adj_t"] if architecture == "gcn" else [])


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

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_from_flat_checks_size_before_reshaping(self, extra):
        params = init_params(ModelConfig("gcn", input_dim=6, hidden_dim=4,
                                         num_classes=3))
        with pytest.raises(DataError, match=r"expected \(36,\)") as exc:
            params.from_flat(np.zeros(params.size + extra))
        assert exc.value.exit_code == 3
