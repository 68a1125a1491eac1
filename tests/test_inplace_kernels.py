"""Differential and memory tests of the in-place GAT kernels.

The ``former_*`` functions are the kernels as they were before each array
was held once: every edge-sized step (scores, LeakyReLU, shift, exp,
normalisation) in a fresh array, a float slope per entry in the cache, two
copies of A_alpha in the backward, each layer-1 head's output concatenated
into a second z1, and a fresh dz1; and the GCN backward that took
row_adj.T, a new CSC wrapper, every step where a row view now stores its
transpose as a CSR. The rewritten kernels must match them bit for bit,
zero signs included.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neubm.datasets import SbmConfig, generate_sbm, stratified_split
from neubm.errors import NumericError
from neubm.graph import Graph, bernoulli_cells, build_adjacency, with_values
from neubm.models import (
    LEAKY_SLOPE,
    ModelConfig,
    _attention_backward,
    _attention_layer,
    _first_row_max,
    _relu_dropout,
    _row_spans,
    _rowdot,
    backward_with_operator,
    forward_with_operator,
    init_params,
    predict_logits,
    prepare_operator,
    row_view,
)
from neubm.training import TrainConfig, loss_and_gradients, train


def former_gate_grad(dh1, z1, gate):
    return dh1 * (gate if gate is not None else z1 > 0.0)


def former_attention_layer(h, w, a_src, a_dst, adj, rows=None):
    starts, sizes = _row_spans(adj)
    narrow = rows is None and h.shape[1] < w.shape[1]
    if narrow:
        s_src, s_dst = h @ (w @ a_src), h @ (w @ a_dst)
    else:
        g = h @ w
        s_src, s_dst = g @ a_src, g @ a_dst
    if rows is not None:
        s_src = s_src[rows]
    e = np.repeat(s_src, sizes) + s_dst.take(adj.indices)
    slope = (e > 0.0) * (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE
    e_act = e * slope
    exps = np.exp(e_act - np.repeat(np.maximum.reduceat(e_act, starts), sizes))
    sums = np.add.reduceat(exps, starts)
    if not np.all(np.isfinite(sums)):
        raise NumericError("non-finite attention coefficients")
    att = with_values(adj, exps / np.repeat(sums, sizes))
    if narrow:
        side = att @ h
        out = side @ w
    else:
        side = g
        out = att @ g
    return out, (side, slope, att, out, sums)


def former_attention_backward(dout, h, w, a_src, a_dst, cache, adj, rows=None,
                              input_grad=True):
    side, slope, att, out, sums = cache
    starts, sizes = _row_spans(adj)
    narrow = side.shape[1] < w.shape[1]
    rows = slice(None) if rows is None else rows
    p, agg, dp = (h, side, dout @ w.T) if narrow else (side, out, dout)
    alpha = att.data
    top = _first_row_max(alpha, 1.0 / sums, starts, sizes)
    top_col = att.indices[top]
    rest = with_values(att, alpha.copy())
    rest.data[top] = 0.0
    b = with_values(att, rest.data * slope)
    u = _rowdot(dp, np.add.reduceat(rest.data, starts)[:, None] * p[top_col]
                - rest @ p)
    top_de = alpha[top] * slope[top] * u
    r = _rowdot(dp, agg)
    ds_src = _rowdot(dp, b @ p) - r * np.add.reduceat(b.data, starts) + top_de
    ds_dst = (_rowdot(p, b.T @ dp) - b.T @ r
              + np.bincount(top_col, weights=top_de, minlength=p.shape[0]))
    p_src, p_dst = p[rows].T @ ds_src, p.T @ ds_dst
    dh = None
    if narrow:
        dw = agg.T @ dout + np.outer(p_src, a_src) + np.outer(p_dst, a_dst)
        if input_grad:
            dh = (att.T @ dp + np.outer(ds_src, w @ a_src)
                  + np.outer(ds_dst, w @ a_dst))
        return dh, dw, w.T @ p_src, w.T @ p_dst
    dg = att.T @ dout
    dg[rows] += np.outer(ds_src, a_src)
    dg += np.outer(ds_dst, a_dst)
    if input_grad:
        dh = dg @ w.T
    return dh, h.T @ dg, p_src, p_dst


def former_gat_pass(params, operator, mode, dropout_seed, hidden):
    cfg = params.config
    k = cfg.num_heads
    if hidden is None:
        hidden = [
            former_attention_layer(operator.x, *params.arrays[3 * i : 3 * i + 3],
                                   operator.adj)[1]
            for i in range(k)
        ]
    z1 = np.concatenate([cache[3] for cache in hidden], axis=1)
    h1, gate = _relu_dropout(z1, cfg, mode, dropout_seed)
    w1, a1_s, a1_d = params.arrays[3 * k : 3 * k + 3]
    logits, out_cache = former_attention_layer(h1, w1, a1_s, a1_d,
                                               operator.row_adj, operator.rows)
    return logits, (hidden, z1, gate, h1, out_cache)


def former_gat_backward(params, operator, dlogits, cache):
    cfg = params.config
    k = cfg.num_heads
    head_caches, z1, gate, h1, out_cache = cache
    w1, a1_s, a1_d = params.arrays[3 * k : 3 * k + 3]
    dh1, dw1, da1_s, da1_d = former_attention_backward(
        dlogits, h1, w1, a1_s, a1_d, out_cache, operator.row_adj, operator.rows
    )
    dz1 = former_gate_grad(dh1, z1, gate)
    grads = []
    h = cfg.hidden_dim
    for i in range(k):
        w, a_s, a_d = params.arrays[3 * i : 3 * i + 3]
        _, dw, da_s, da_d = former_attention_backward(
            dz1[:, i * h : (i + 1) * h], operator.x, w, a_s, a_d, head_caches[i],
            operator.adj, input_grad=False,
        )
        grads.extend([dw, da_s, da_d])
    grads.extend([dw1, da1_s, da1_d])
    return tuple(grads)


def former_gcn_backward(params, operator, dlogits, cache):
    w0, w1 = params.arrays
    z1, gate, h1 = cache
    adl = operator.row_adj.T @ dlogits
    dw1 = h1.T @ adl
    dz1 = former_gate_grad(adl @ w1.T, z1, gate)
    dw0 = operator.x.T @ dz1
    return (dw0, dw1)


def former_bernoulli_cells(rng, cells, p):
    if cells <= 0 or p <= 0.0:
        return np.zeros(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(cells, dtype=np.int64)
    chunks, last = [], -1
    while True:
        w = (cells - 1 - last) * p
        skips = rng.geometric(p, size=int(w + 6.0 * np.sqrt(w) + 16))
        hits = last + np.cumsum(np.minimum(skips, cells + 1, out=skips))
        if hits[-1] >= cells:
            chunks.append(hits[: np.searchsorted(hits, cells)])
            return np.concatenate(chunks)
        chunks.append(hits)
        last = int(hits[-1])


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def criterion_5_graph():
    return generate_sbm(SbmConfig(
        num_classes=5, total_nodes=2000, rho=10, p_intra=0.02, p_inter=0.006,
        feature_dim=16, class_mean_separation=0.8, seed=2024,
    ))


def small_graph(rng, n, d, p):
    # node 0 is isolated; p = 0 isolates every node and n = 1 is a lone
    # self-loop
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n)]
    return Graph(num_nodes=n, features=rng.normal(size=(n, d)),
                 edges=[pr for pr in pairs if rng.random() < p],
                 labels=rng.integers(0, 3, size=n), num_classes=3)


def pick_rows(rng, n, rows):
    if rows == "one":
        return np.array([rng.integers(n)])
    if rows == "all":
        return np.arange(n)
    return np.flatnonzero(rng.random(n) < 0.5)


def check_gat_matches_former(params, operator, mode, seed, rng):
    """The GAT forward (with and without a given layer-1 state) and backward
    against the former kernels: logits, every head's attention
    coefficients, z1, h1 and every gradient, bit for bit."""
    got, cache = forward_with_operator(params, operator, mode=mode,
                                       dropout_seed=seed)
    want, former = former_gat_pass(params, operator, mode, seed, None)
    assert_bits_equal(got, want)
    (heads, z1), gate, h1, out_cache = cache
    former_heads, former_z1, _, former_h1, former_out = former
    assert_bits_equal(z1, former_z1)
    assert_bits_equal(h1, former_h1)
    for head, former_head in zip([*heads, out_cache], [*former_heads, former_out]):
        assert_bits_equal(head[2].data, former_head[2].data)
        assert_bits_equal(head[3], former_head[3])
        np.testing.assert_array_equal(np.where(head[1], 1.0, LEAKY_SLOPE),
                                      former_head[1])
    again, _ = forward_with_operator(params, operator, mode=mode,
                                     dropout_seed=seed, hidden=(heads, z1))
    assert_bits_equal(again, got)

    dlogits = rng.normal(size=got.shape)
    dlogits[rng.random(got.shape) < 0.2] = -0.0
    grads = backward_with_operator(params, operator, dlogits.copy(), cache)
    want_grads = former_gat_backward(params, operator, dlogits, former)
    assert len(grads) == len(want_grads) == len(params.arrays)
    for g, w in zip(grads, want_grads):
        assert_bits_equal(g, w)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    d_in=st.integers(min_value=1, max_value=5),
    hidden=st.integers(min_value=1, max_value=5),
    heads=st.integers(min_value=1, max_value=2),
    p=st.floats(min_value=0.0, max_value=1.0),
    rows=st.sampled_from(["full", "one", "some", "all"]),
    mode=st.sampled_from(["eval", "train"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# narrow heads (d_in < hidden), a tie and wide heads; one and two heads
@example(n=9, d_in=2, hidden=5, heads=2, p=0.5, rows="some", mode="train", seed=1)
@example(n=9, d_in=3, hidden=3, heads=1, p=0.5, rows="full", mode="eval", seed=2)
@example(n=9, d_in=5, hidden=2, heads=2, p=0.5, rows="full", mode="train", seed=3)
@example(n=9, d_in=2, hidden=5, heads=1, p=0.0, rows="one", mode="eval", seed=4)
def test_gat_matches_former_kernels(n, d_in, hidden, heads, p, rows, mode, seed):
    rng = np.random.default_rng(seed)
    g = small_graph(rng, n, d_in, p)
    cfg = ModelConfig("gat", input_dim=d_in, hidden_dim=hidden, num_classes=3,
                      dropout=0.5, num_heads=heads, seed=int(rng.integers(100)))
    operator = prepare_operator(g, cfg)
    if rows != "full":
        operator = row_view(operator, pick_rows(rng, n, rows))
    check_gat_matches_former(init_params(cfg), operator, mode, seed, rng)


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("hidden", [8, 32])  # 16 features: wide, narrow heads
def test_gat_matches_former_kernels_at_criterion_5_scale(heads, hidden):
    g = criterion_5_graph()
    rng = np.random.default_rng(heads * hidden)
    cfg = ModelConfig("gat", input_dim=16, hidden_dim=hidden, num_classes=5,
                      dropout=0.5, num_heads=heads, seed=heads)
    params = init_params(cfg)
    operator = prepare_operator(g, cfg)
    split = stratified_split(g, 0.1, 0.1, 5, seed=0)
    check_gat_matches_former(params, operator, "eval", 0, rng)
    check_gat_matches_former(params, row_view(operator, split.train), "train",
                             7, rng)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    d_in=st.integers(min_value=1, max_value=5),
    d_out=st.integers(min_value=1, max_value=5),
    p=st.floats(min_value=0.0, max_value=1.0),
    rows=st.sampled_from(["full", "one", "some", "all"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=9, d_in=2, d_out=5, p=0.5, rows="full", seed=5)
@example(n=9, d_in=4, d_out=2, p=0.5, rows="some", seed=6)
def test_attention_head_matches_former_kernels(n, d_in, d_out, p, rows, seed):
    # one head on its own, with the input gradient GAT never asks of a
    # layer-1 head; rows "full" is a head over every node (rows None)
    rng = np.random.default_rng(seed)
    g = small_graph(rng, n, d_in, p)
    w = rng.normal(size=(d_in, d_out)) / np.sqrt(d_in)
    a_s, a_d = rng.normal(size=(2, d_out)) / np.sqrt(d_out)
    adj = build_adjacency(g, add_self_loops=True)
    idx = None if rows == "full" else pick_rows(rng, n, rows)
    row_adj = adj if idx is None else adj[idx]
    out, cache = _attention_layer(g.features, w, a_s, a_d, row_adj, idx)
    want, former = former_attention_layer(g.features, w, a_s, a_d, row_adj, idx)
    assert_bits_equal(out, want)
    assert_bits_equal(cache[2].data, former[2].data)
    assert_bits_equal(cache[4], former[4])
    dout = rng.normal(size=out.shape)
    grads = _attention_backward(dout, g.features, w, a_s, a_d, cache, row_adj, idx)
    want_grads = former_attention_backward(dout, g.features, w, a_s, a_d, former,
                                           row_adj, idx)
    for got, want in zip(grads, want_grads):
        assert_bits_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    p=st.floats(min_value=0.0, max_value=1.0),
    rows=st.sampled_from(["full", "one", "some"]),
    mode=st.sampled_from(["eval", "train"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gcn_backward_matches_former_gate_grad(n, p, rows, mode, seed):
    rng = np.random.default_rng(seed)
    g = small_graph(rng, n, 4, p)
    cfg = ModelConfig("gcn", input_dim=4, hidden_dim=5, num_classes=3,
                      dropout=0.5, seed=int(rng.integers(100)))
    params = init_params(cfg)
    operator = prepare_operator(g, cfg)
    if rows != "full":
        operator = row_view(operator, pick_rows(rng, n, rows))
    logits, cache = forward_with_operator(params, operator, mode=mode,
                                          dropout_seed=seed)
    dlogits = rng.normal(size=logits.shape)
    grads = backward_with_operator(params, operator, dlogits, cache)
    for got, want in zip(grads, former_gcn_backward(params, operator, dlogits,
                                                    cache)):
        assert_bits_equal(got, want)


@pytest.mark.parametrize("graph", ["random", "criterion-5"])
def test_gcn_training_matches_former_backward(graph, monkeypatch):
    # train() through row views that store their transpose, against a run
    # whose backward multiplies by row_adj.T every step: the same
    # parameters bit for bit and the same report but its wall time
    import neubm.models as models
    import neubm.training as training

    if graph == "random":
        g = small_graph(np.random.default_rng(3), 60, 4, 0.1)
        cfg = ModelConfig("gcn", input_dim=4, hidden_dim=8, num_classes=3,
                          dropout=0.5, seed=1)
        split = stratified_split(g, 0.2, 0.2, 2, seed=0)
    else:
        g = criterion_5_graph()
        cfg = ModelConfig("gcn", input_dim=16, hidden_dim=32, num_classes=5,
                          dropout=0.5, seed=17)
        split = stratified_split(g, 0.1, 0.1, 5, seed=0)
    train_config = TrainConfig(learning_rate=0.01, max_epochs=60, patience=60,
                               seed=29)
    views = []

    def recording_row_view(operator, rows):
        views.append(row_view(operator, rows))
        return views[-1]

    monkeypatch.setattr(training, "row_view", recording_row_view)
    params, report = train(g, split, cfg, train_config)
    train_view, val_view = views
    assert list(train_view.cache) == ["row_adj_t"] and val_view.cache == {}

    former_steps = []

    def counting_former_backward(*args):
        former_steps.append(args[1])
        return former_gcn_backward(*args)

    monkeypatch.setattr(models, "_gcn_backward", counting_former_backward)
    want_params, want_report = train(g, split, cfg, train_config)
    assert len(former_steps) == report.epochs_run == 60
    for got, want in zip(params.arrays, want_params.arrays):
        assert_bits_equal(got, want)
    assert (replace(report, wall_time_seconds=0.0)
            == replace(want_report, wall_time_seconds=0.0))


@settings(max_examples=200, deadline=None)
@given(
    cells=st.integers(0, 10**6),
    p=st.sampled_from([1e-9, 1e-5, 1e-3, 0.01, 0.3, 0.9, 1 - 1e-9]),
    seed=st.integers(0, 2**32 - 1),
)
@example(cells=2**62, p=1e-17, seed=0)  # skips capped at cells + 1
def test_bernoulli_cells_matches_former_running_sum(cells, p, seed):
    got = bernoulli_cells(np.random.default_rng(seed), cells, p)
    want = former_bernoulli_cells(np.random.default_rng(seed), cells, p)
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def criterion_5_gat():
    """The criterion-5 graph, a one-head GAT of width 32 over its 16
    features (narrow layer-1 heads), and the array sizes, in bytes, that
    the bounds below count: one float per stored entry of the self-looped
    adjacency (edge), and node x width, node x features and node x class
    arrays."""
    g = criterion_5_graph()
    cfg = ModelConfig("gat", input_dim=16, hidden_dim=32, num_classes=5,
                      dropout=0.5, seed=0)
    operator = prepare_operator(g, cfg)
    n = g.num_nodes
    units = {"edge": 8 * operator.adj.nnz, "nw": 8 * n * 32, "nd": 8 * n * 16,
             "nc": 8 * n * 5}
    return g, cfg, operator, units


def test_gat_training_step_holds_each_array_once():
    # a training-mode step on the train rows, given the layer-1 state of the
    # validation forward (as train() runs it). At its peak, the layer-1
    # head backward, the step must hold h1, the dropout gate and dz1 (three
    # node x width arrays), B (one edge array), dP, u and B . P (three node x
    # features arrays), the output layer's projection (one node x class
    # array) and the view's attention coefficients (one float per stored
    # entry of the train rows). One more edge and node x width array is
    # headroom. The former kernels held 4.5 MB here (dh1 and dz1 apart,
    # rest and B apart); the bound is 3.6 MB
    g, cfg, operator, u = criterion_5_gat()
    params = init_params(cfg)
    split = stratified_split(g, 0.1, 0.1, 5, seed=0)
    hidden = forward_with_operator(params, row_view(operator, split.val))[1][0]
    view = row_view(operator, split.train)
    peak = traced_peak(lambda: loss_and_gradients(
        params, view, g.labels[split.train], weight_decay=5e-4, mode="train",
        dropout_seed=1, hidden=hidden))
    bound = (3 * u["nw"] + u["edge"] + 3 * u["nd"] + u["nc"]
             + 8 * view.row_adj.nnz)
    bound += u["edge"] + u["nw"]
    assert peak <= bound, f"peak {peak / 1e6:.2f} MB > {bound / 1e6:.2f} MB"


def test_gat_predict_logits_holds_each_array_once():
    # eval-mode logits of every node, the operator built inside. At its
    # peak, the output layer's LeakyReLU, the pass must hold the adjacency
    # (values and int32 indices: 1.5 edge arrays), each layer's attention
    # coefficients (two edge arrays) and score signs (two bool edge arrays),
    # one transient edge array, z1 and h1 (two node x width arrays), the
    # layer-1 side A_alpha . X (one node x features array) and the output
    # projection (one node x class array). One more edge and node x width
    # array is headroom. The former kernels held 5.3 MB here (slopes,
    # shifted scores and exponentials apart, z1 twice); the bound is 3.9 MB
    g, cfg, _, u = criterion_5_gat()
    params = init_params(cfg)
    peak = traced_peak(lambda: predict_logits(params, g))
    bound = (1.5 + 2 + 2 / 8 + 1) * u["edge"] + 2 * u["nw"] + u["nd"] + u["nc"]
    bound += u["edge"] + u["nw"]
    assert peak <= bound, f"peak {peak / 1e6:.2f} MB > {bound / 1e6:.2f} MB"
