"""Two-layer GNN forward passes (convolutional and attention variants) with
hand-written reverse-mode gradients, plus parameter containers and a JSON
checkpoint format.

Both architectures propagate over one sparse structure: the self-looped CSR
adjacency of the graph. GCN stores the symmetrically normalized weights as
its values and precomputes the parameter-free A_hat . X once per graph;
GAT computes attention per stored edge and aggregates with the attention
coefficients as values, so no N x N array is ever built. A row view of an
operator (:func:`row_view`) returns the logits of chosen nodes only, which
is all the training loss and validation read.

Everything runs in float64; forward and backward are deterministic given
the explicit dropout seed, so training trajectories are bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericError, ShapeError
from .graph import Graph, build_adjacency, symmetric_normalize, with_values

LEAKY_SLOPE = 0.2  # attention score nonlinearity


@dataclass(frozen=True)
class ModelConfig:
    architecture: str  # "gcn" | "gat"
    input_dim: int
    hidden_dim: int
    num_classes: int
    dropout: float = 0.5
    num_heads: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.architecture not in ("gcn", "gat"):
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.num_heads < 1:
            raise ConfigError("num_heads must be >= 1")


@dataclass(frozen=True)
class ModelParams:
    """Ordered weight arrays plus a flat view for the optimizer and
    finite-difference checks.

    gcn: (W0, W1). gat: per layer-1 head (W, a_src, a_dst), then the output
    head (W1, a1_src, a1_dst).
    """

    config: ModelConfig
    arrays: tuple[np.ndarray, ...]

    def __post_init__(self):
        for a in self.arrays:
            if not np.all(np.isfinite(a)):
                raise NumericError("non-finite model parameter")

    def flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays])

    def from_flat(self, flat: np.ndarray) -> "ModelParams":
        out, pos = [], 0
        for a in self.arrays:
            out.append(flat[pos : pos + a.size].reshape(a.shape).copy())
            pos += a.size
        if pos != flat.size:
            raise ShapeError(f"flat vector has {flat.size} entries, expected {pos}")
        return replace(self, arrays=tuple(out))

    @property
    def size(self) -> int:
        return sum(a.size for a in self.arrays)


def _glorot(rng, fan_in, fan_out, shape=None):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded Glorot-uniform initialization."""
    rng = np.random.default_rng(config.seed)
    d, h, c, k = config.input_dim, config.hidden_dim, config.num_classes, config.num_heads
    if config.architecture == "gcn":
        arrays = (_glorot(rng, d, h), _glorot(rng, h, c))
    else:
        arrays = []
        for _ in range(k):
            arrays.append(_glorot(rng, d, h))
            arrays.append(_glorot(rng, 2 * h, 1, shape=(h,)))
            arrays.append(_glorot(rng, 2 * h, 1, shape=(h,)))
        arrays.append(_glorot(rng, k * h, c))
        arrays.append(_glorot(rng, 2 * c, 1, shape=(c,)))
        arrays.append(_glorot(rng, 2 * c, 1, shape=(c,)))
        arrays = tuple(arrays)
    return ModelParams(config=config, arrays=arrays)


def _dropout_mask(rng, shape, rate, active=True):
    """Inverted dropout: kept entries scaled by 1/keep so eval needs no
    rescaling. Entries where ``active`` is False are dropped as well,
    after the draw, so the random stream does not depend on it."""
    keep = 1.0 - rate
    kept = rng.random(shape) < keep
    kept &= active
    return kept * (1.0 / keep)


def _relu_dropout(z1, config, mode, dropout_seed):
    """h1 = dropout(relu(z1)) and its gate, the factor the backward applies.

    In train mode the gate is the dropout mask times (z1 > 0), built once,
    and h1 = z1 * gate. Otherwise the gate is None and stands for z1 > 0.
    """
    if mode == "train" and config.dropout > 0.0:
        gate = _dropout_mask(np.random.default_rng(dropout_seed), z1.shape,
                             config.dropout, active=z1 > 0.0)
        return z1 * gate, gate
    return np.maximum(z1, 0.0), None


def _gate_grad(dh1, z1, gate):
    """dz1 from dh1 through the ReLU and dropout of :func:`_relu_dropout`."""
    return dh1 * (gate if gate is not None else z1 > 0.0)


# ---------------------------------------------------------------------------
# GCN


@dataclass(frozen=True)
class GcnOperator:
    """The GCN propagation operator of one graph: rows of the symmetrically
    normalized self-looped CSR adjacency A_hat (all n of them, or the rows
    of a :func:`row_view`), plus the parameter-free first propagation
    A_hat . X of that graph's features (all n rows, which layer 2 reads).

    ``norm_adj_t`` is the CSR transpose of a row view's rows, which the
    backward multiplies by; the full A_hat is symmetric and stores none.
    """

    norm_adj: sp.csr_matrix
    ax: np.ndarray
    norm_adj_t: sp.csr_matrix | None = None


def _gcn_pass(params, operator, features, mode, dropout_seed, hidden):
    """logits = A_hat . (dropout(relu(A_hat . X . W0)) . W1)

    A_hat . X comes from the operator, so ``features`` must be the features
    of the graph the operator was built from; only its width is checked.
    ``hidden`` is z1 = A_hat . X . W0 of an earlier pass with the same
    params, or None. Layer 2 projects to the class width before it
    propagates, and only to the operator's rows.
    """
    w0, w1 = params.arrays
    if features.shape[1] != w0.shape[0]:
        raise ShapeError(
            f"features have width {features.shape[1]}, layer expects {w0.shape[0]}"
        )
    z1 = operator.ax @ w0 if hidden is None else hidden
    h1, gate = _relu_dropout(z1, params.config, mode, dropout_seed)
    logits = operator.norm_adj @ (h1 @ w1)
    return logits, (z1, gate, h1)


def _gcn_backward(params, operator, dlogits, cache):
    w0, w1 = params.arrays
    z1, gate, h1 = cache
    # (A_hat[rows])^T . dlogits; on the full operator this is A_hat . dlogits
    adj_t = operator.norm_adj if operator.norm_adj_t is None else operator.norm_adj_t
    adl = adj_t @ dlogits
    dw1 = h1.T @ adl
    dz1 = _gate_grad(adl @ w1.T, z1, gate)
    dw0 = operator.ax.T @ dz1
    return (dw0, dw1)


# ---------------------------------------------------------------------------
# GAT


class Segments(NamedTuple):
    """CSR rows an attention head runs over, with the first stored entry
    (``starts``) and the number of stored entries (``sizes``) of each row.
    A per-row value spreads to the row's entries as np.repeat(v, sizes),
    which is cheaper than gathering it through per-entry row ids."""

    csr: sp.csr_matrix
    starts: np.ndarray
    sizes: np.ndarray


def segments(adj: sp.csr_matrix) -> Segments:
    """The segments of every row of ``adj``."""
    return Segments(adj, adj.indptr[:-1], np.diff(adj.indptr))


def _attention_layer(h, w, a_src, a_dst, segs, rows=None):
    """Single attention head: softmax-normalized neighbor aggregation.

    ``segs`` holds the self-looped CSR rows of the output nodes ``rows`` (an
    index array or slice) over all n columns, or every node's row when
    ``rows`` is None, with their starts and sizes (:func:`segments`).
    Scores are LeakyReLU(a_src . Wh_i + a_dst . Wh_j), one per stored entry
    (i, j); the softmax runs over each row's segment of entries. Self-loops
    keep every segment nonempty. Returns the output rows and a cache (side,
    per-entry LeakyReLU slopes, the attention CSR A_alpha, output) for the
    backward pass.

    A head over every node (layer 1) runs its sparse products on the
    narrower side: when h is strictly narrower than its projection it takes
    the scores from h . (W . a) and returns (A_alpha . h) . W, and side is
    A_alpha . h. Otherwise, and always on given rows, it returns A_alpha .
    g and side is g = h . W: a dense product after a row-restricted
    aggregation would not round a row as the full operator does (BLAS takes
    a matrix-vector path for a single row), and a row view must match it
    bit for bit.
    """
    adj, starts, sizes = segs
    narrow = rows is None and h.shape[1] < w.shape[1]
    if narrow:
        s_src, s_dst = h @ (w @ a_src), h @ (w @ a_dst)
    else:
        g = h @ w
        s_src, s_dst = g @ a_src, g @ a_dst
    if rows is not None:
        s_src = s_src[rows]
    e = np.repeat(s_src, sizes) + s_dst.take(adj.indices)
    # exactly 1.0 where e > 0 and LEAKY_SLOPE elsewhere, so e * slope is
    # LeakyReLU(e) bit for bit; several times cheaper than np.where here
    slope = (e > 0.0) * (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE
    e_act = e * slope
    exps = np.exp(e_act - np.repeat(np.maximum.reduceat(e_act, starts), sizes))
    att = with_values(adj, exps / np.repeat(np.add.reduceat(exps, starts), sizes))
    if narrow:
        side = att @ h
        out = side @ w
    else:
        side = g
        out = att @ g
    return out, (side, slope, att, out)


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _first_row_max(alpha, starts, sizes):
    """Storage index of the first largest entry of each nonempty CSR row:
    the first hit of the row-max mask at or after the row's start."""
    hits = np.flatnonzero(alpha == np.repeat(np.maximum.reduceat(alpha, starts),
                                             sizes))
    return hits[np.searchsorted(hits, starts)]


def _attention_backward(dout, h, w, a_src, a_dst, cache, segs, rows=None,
                        input_grad=True):
    """Gradients (dh, dw, da_src, da_dst) of one head from ``dout`` at its
    output rows, given the ``segs`` and ``rows`` of its forward (see
    :func:`_attention_layer`); dh is None unless ``input_grad``.

    The products run on the side the forward aggregated: P = g with dP =
    dout, or P = h with dP = dout . W^T, so that dout_i . g_j = dP_i . P_j.
    The score gradient is B_ij (dalpha_ij - r_i), with dalpha_ij = dP_i .
    P_j, r_i = dP_i . (A_alpha . P)_i and B = A_alpha times each score's
    LeakyReLU slope, so its row and column sums are CSR products and no
    (edges x width) array is built. Each row's largest entry j* is summed
    apart as B_ij* u_i, u_i = dalpha_ij* - r_i = dP_i . sum_{k != j*}
    alpha_ik (P_j* - P_k): on a peaked row the two terms nearly cancel.
    """
    side, slope, att, out = cache
    _, starts, sizes = segs
    narrow = side.shape[1] < w.shape[1]  # side is A_alpha . h, not g
    rows = slice(None) if rows is None else rows
    p, agg, dp = (h, side, dout @ w.T) if narrow else (side, out, dout)
    alpha = att.data
    top = _first_row_max(alpha, starts, sizes)
    top_col = att.indices[top]
    rest = with_values(att, alpha.copy())  # A_alpha without the top entries
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
        if input_grad:  # a narrow head runs over every node
            dh = (att.T @ dp + np.outer(ds_src, w @ a_src)
                  + np.outer(ds_dst, w @ a_dst))
        return dh, dw, w.T @ p_src, w.T @ p_dst
    dg = att.T @ dout
    dg[rows] += np.outer(ds_src, a_src)
    dg += np.outer(ds_dst, a_dst)
    if input_grad:
        dh = dg @ w.T
    return dh, h.T @ dg, p_src, p_dst


def _gat_pass(params, view, features, mode, dropout_seed, hidden):
    """Layer 1 on every node, since attention reads all hidden states; the
    output layer on the view's rows, which it is always given (a slice of
    all of them for the full operator), so it aggregates its projection.
    ``hidden`` is the list of layer-1 head caches of an earlier pass with
    the same params, or None."""
    cfg = params.config
    if features.shape[1] != cfg.input_dim:
        raise ShapeError(
            f"features have width {features.shape[1]}, model expects {cfg.input_dim}"
        )
    k = cfg.num_heads
    if hidden is None:
        hidden = [
            _attention_layer(features, *params.arrays[3 * i : 3 * i + 3], view.adj)[1]
            for i in range(k)
        ]
    z1 = np.concatenate([cache[3] for cache in hidden], axis=1)  # head outputs
    h1, gate = _relu_dropout(z1, cfg, mode, dropout_seed)
    w1, a1_s, a1_d = params.arrays[3 * k : 3 * k + 3]
    logits, out_cache = _attention_layer(h1, w1, a1_s, a1_d, view.row_adj,
                                         view.rows)
    return logits, (hidden, z1, gate, h1, out_cache, view)


def _gat_backward(params, features, dlogits, cache):
    cfg = params.config
    k = cfg.num_heads
    head_caches, z1, gate, h1, out_cache, view = cache
    w1, a1_s, a1_d = params.arrays[3 * k : 3 * k + 3]
    dh1, dw1, da1_s, da1_d = _attention_backward(
        dlogits, h1, w1, a1_s, a1_d, out_cache, view.row_adj, view.rows
    )
    dz1 = _gate_grad(dh1, z1, gate)
    grads = []
    h = cfg.hidden_dim
    for i in range(k):
        w, a_s, a_d = params.arrays[3 * i : 3 * i + 3]
        _, dw, da_s, da_d = _attention_backward(
            dz1[:, i * h : (i + 1) * h], features, w, a_s, a_d, head_caches[i],
            view.adj, input_grad=False,
        )
        grads.extend([dw, da_s, da_d])
    grads.extend([dw1, da1_s, da1_d])
    return tuple(grads)


# ---------------------------------------------------------------------------
# shared entry points


def prepare_operator(graph: Graph, config: ModelConfig):
    """Precompute the fixed propagation operator for a graph.

    gat gets the self-looped CSR adjacency; it uses only its structure and
    supplies attention coefficients as values. gcn gets a
    :class:`GcnOperator`: the same adjacency with symmetrically normalized
    values, plus A_hat . X of ``graph.features``. Pass the operator only
    with the features of the graph it was built from.
    """
    adj = build_adjacency(graph, add_self_loops=True)
    if config.architecture == "gat":
        return adj
    norm_adj = symmetric_normalize(adj)
    return GcnOperator(norm_adj=norm_adj, ax=norm_adj @ graph.features)


@dataclass(frozen=True)
class GatRowView:
    """A GAT operator restricted to output rows: the segments of the full
    self-looped CSR ``adj`` (layer 1 needs the hidden state of every node)
    and of ``row_adj``, its CSR rows ``rows``, on which the output layer
    runs. The segments are computed once per view, not per pass."""

    adj: Segments
    row_adj: Segments
    rows: np.ndarray | slice


def row_view(operator, rows: np.ndarray):
    """The operator restricted to the output nodes ``rows`` (sorted indices).

    A forward through the view returns the (len(rows), C) logits that the
    full operator gives at those rows, bit for bit; its backward takes
    dlogits of that shape. The output layer (GCN's second propagation,
    GAT's output attention) runs on those rows only.
    """
    if isinstance(operator, GcnOperator):
        norm_adj = operator.norm_adj[rows]
        return GcnOperator(norm_adj=norm_adj, ax=operator.ax,
                           norm_adj_t=norm_adj.T.tocsr())
    return GatRowView(adj=segments(operator), row_adj=segments(operator[rows]),
                      rows=rows)


def forward_with_operator(params, operator, features, mode="eval", dropout_seed=0,
                          hidden=None):
    """Logits for the operator's rows (every node for a full operator) and
    the cache its backward needs.

    Layer 1 runs on every node and does not depend on the rows, the mode or
    the dropout seed. ``cache[0]`` is its state (GCN: z1 = A_hat . X . W0;
    GAT: the per-head caches, whose outputs concatenate to z1). Passing that
    state as ``hidden`` to a later call with the same params and an
    operator of the same graph skips layer 1 and gives bit-identical
    results; None recomputes it.
    """
    if params.config.architecture == "gcn":
        return _gcn_pass(params, operator, features, mode, dropout_seed, hidden)
    if not isinstance(operator, GatRowView):  # the all-rows view
        every = segments(operator)
        operator = GatRowView(adj=every, row_adj=every, rows=slice(None))
    return _gat_pass(params, operator, features, mode, dropout_seed, hidden)


def backward_with_operator(params, operator, features, dlogits, cache):
    """Parameter gradients from dlogits at the operator's rows."""
    if params.config.architecture == "gcn":
        return _gcn_backward(params, operator, dlogits, cache)
    return _gat_backward(params, features, dlogits, cache)


def predict_logits(params: ModelParams, graph: Graph) -> np.ndarray:
    """Uncalibrated per-node logits, eval mode."""
    operator = prepare_operator(graph, params.config)
    logits, _ = forward_with_operator(params, operator, graph.features, mode="eval")
    return logits


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_FORMAT = "neubm-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(params: ModelParams, path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "model_config": asdict(params.config),
        "params_flat": params.flat().tolist(),
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def load_checkpoint(path) -> ModelParams:
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"{path} is not a model checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {payload.get('version')}")
    config = ModelConfig(**payload["model_config"])
    template = init_params(config)
    flat = np.asarray(payload["params_flat"], dtype=np.float64)
    return template.from_flat(flat)
