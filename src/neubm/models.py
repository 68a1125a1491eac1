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

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, NumericError, ShapeError
from .graph import Graph, build_adjacency, csr_rows, symmetric_normalize, with_values

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


def _dropout_mask(rng, shape, rate):
    # inverted dropout: kept entries scaled by 1/keep so eval needs no rescaling
    keep = 1.0 - rate
    return (rng.random(shape) < keep) * (1.0 / keep)


# ---------------------------------------------------------------------------
# GCN


@dataclass(frozen=True)
class GcnOperator:
    """The GCN propagation operator of one graph: rows of the symmetrically
    normalized self-looped CSR adjacency A_hat (all n of them, or the rows
    of a :func:`row_view`), plus the parameter-free first propagation
    A_hat . X of that graph's features (all n rows, which layer 2 reads)."""

    norm_adj: sp.csr_matrix
    ax: np.ndarray


def _gcn_pass(params, operator, features, mode, dropout_seed):
    """logits = A_hat . (dropout(relu(A_hat . X . W0)) . W1)

    A_hat . X comes from the operator, so ``features`` must be the features
    of the graph the operator was built from; only its width is checked.
    Layer 2 projects to the class width before it propagates, and only to
    the operator's rows.
    """
    w0, w1 = params.arrays
    if features.shape[1] != w0.shape[0]:
        raise ShapeError(
            f"features have width {features.shape[1]}, layer expects {w0.shape[0]}"
        )
    z1 = operator.ax @ w0
    a1 = np.maximum(z1, 0.0)
    if mode == "train" and params.config.dropout > 0.0:
        mask = _dropout_mask(
            np.random.default_rng(dropout_seed), a1.shape, params.config.dropout
        )
    else:
        mask = None
    h1 = a1 * mask if mask is not None else a1
    logits = operator.norm_adj @ (h1 @ w1)
    return logits, (z1, mask, h1)


def _gcn_backward(params, operator, dlogits, cache):
    w0, w1 = params.arrays
    z1, mask, h1 = cache
    # (A_hat[rows])^T . dlogits; on the full operator this is A_hat . dlogits
    adl = operator.norm_adj.T @ dlogits
    dw1 = h1.T @ adl
    dh1 = adl @ w1.T
    da1 = dh1 * mask if mask is not None else dh1
    dz1 = da1 * (z1 > 0.0)
    dw0 = operator.ax.T @ dz1
    return (dw0, dw1)


# ---------------------------------------------------------------------------
# GAT


def _attention_layer(h, w, a_src, a_dst, adj, rows=slice(None)):
    """Single attention head: softmax-normalized neighbor aggregation.

    ``adj`` holds the self-looped CSR rows of the output nodes ``rows``
    (every node by default) over all n columns. Scores are
    LeakyReLU(a_src . Wh_i + a_dst . Wh_j), one per stored entry (i, j);
    the softmax runs over each row's segment of entries. Self-loops keep
    every segment nonempty. Returns the output rows and a cache (g,
    per-edge scores, the attention CSR A_alpha, output) for the backward
    pass.
    """
    g = h @ w
    seg, starts = csr_rows(adj), adj.indptr[:-1]
    e = (g @ a_src)[rows][seg] + (g @ a_dst)[adj.indices]
    e_act = np.where(e > 0.0, e, LEAKY_SLOPE * e)
    exps = np.exp(e_act - np.maximum.reduceat(e_act, starts)[seg])
    att = with_values(adj, exps / np.add.reduceat(exps, starts)[seg])
    out = att @ g
    return out, (g, e, att, out)


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _attention_backward(dout, h, w, a_src, a_dst, cache, rows=slice(None)):
    """Gradients of one head from ``dout`` at its output rows.

    The score gradient is B_ij (dalpha_ij - r_i), with dalpha_ij = dout_i .
    g_j, r_i = dout_i . out_i and B = A_alpha times each score's LeakyReLU
    slope, so its row and column sums are CSR products and no (edges x
    width) array is built. Each row's largest entry j* is summed apart as
    B_ij* u_i, u_i = dalpha_ij* - r_i = dout_i . sum_{k != j*} alpha_ik
    (g_j* - g_k): on a peaked row the two terms nearly cancel.
    """
    g, e, att, out = cache
    alpha, starts = att.data, att.indptr[:-1]
    is_max = alpha == np.maximum.reduceat(alpha, starts)[csr_rows(att)]
    top = np.minimum.reduceat(np.where(is_max, np.arange(alpha.size), alpha.size),
                              starts)  # first largest alpha of each row
    top_col = att.indices[top]
    rest = with_values(att, alpha.copy())  # A_alpha without the top entries
    rest.data[top] = 0.0
    slope = np.where(e > 0.0, 1.0, LEAKY_SLOPE)
    b = with_values(att, rest.data * slope)
    u = _rowdot(dout, np.add.reduceat(rest.data, starts)[:, None] * g[top_col]
                - rest @ g)
    top_de = alpha[top] * slope[top] * u
    r = _rowdot(dout, out)
    ds_src = _rowdot(dout, b @ g) - r * np.add.reduceat(b.data, starts) + top_de
    ds_dst = (_rowdot(g, b.T @ dout) - b.T @ r
              + np.bincount(top_col, weights=top_de, minlength=g.shape[0]))
    dg = att.T @ dout
    dg[rows] += np.outer(ds_src, a_src)
    dg += np.outer(ds_dst, a_dst)
    da_src = g[rows].T @ ds_src
    da_dst = g.T @ ds_dst
    dw = h.T @ dg
    dh = dg @ w.T
    return dh, dw, da_src, da_dst


def _gat_pass(params, view, features, mode, dropout_seed):
    """Layer 1 on every node, since attention reads all hidden states; the
    output layer on the view's rows."""
    cfg = params.config
    if features.shape[1] != cfg.input_dim:
        raise ShapeError(
            f"features have width {features.shape[1]}, model expects {cfg.input_dim}"
        )
    k = cfg.num_heads
    head_outs, head_caches = [], []
    for i in range(k):
        w, a_s, a_d = params.arrays[3 * i : 3 * i + 3]
        out, cache = _attention_layer(features, w, a_s, a_d, view.adj)
        head_outs.append(out)
        head_caches.append(cache)
    z1 = np.concatenate(head_outs, axis=1)
    a1 = np.maximum(z1, 0.0)
    if mode == "train" and cfg.dropout > 0.0:
        mask = _dropout_mask(
            np.random.default_rng(dropout_seed), a1.shape, cfg.dropout
        )
    else:
        mask = None
    h1 = a1 * mask if mask is not None else a1
    w1, a1_s, a1_d = params.arrays[3 * k : 3 * k + 3]
    logits, out_cache = _attention_layer(h1, w1, a1_s, a1_d, view.row_adj,
                                         view.rows)
    return logits, (head_caches, z1, mask, h1, out_cache, view.rows)


def _gat_backward(params, features, dlogits, cache):
    cfg = params.config
    k = cfg.num_heads
    head_caches, z1, mask, h1, out_cache, rows = cache
    w1, a1_s, a1_d = params.arrays[3 * k : 3 * k + 3]
    dh1, dw1, da1_s, da1_d = _attention_backward(
        dlogits, h1, w1, a1_s, a1_d, out_cache, rows
    )
    da1 = dh1 * mask if mask is not None else dh1
    dz1 = da1 * (z1 > 0.0)
    grads = []
    h = cfg.hidden_dim
    for i in range(k):
        w, a_s, a_d = params.arrays[3 * i : 3 * i + 3]
        _, dw, da_s, da_d = _attention_backward(
            dz1[:, i * h : (i + 1) * h], features, w, a_s, a_d, head_caches[i]
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
    """A GAT operator restricted to output rows: the full self-looped CSR
    ``adj`` (layer 1 needs the hidden state of every node) and ``row_adj``,
    its CSR rows ``rows``, on which the output layer runs."""

    adj: sp.csr_matrix
    row_adj: sp.csr_matrix
    rows: np.ndarray | slice


def row_view(operator, rows: np.ndarray):
    """The operator restricted to the output nodes ``rows`` (sorted indices).

    A forward through the view returns the (len(rows), C) logits that the
    full operator gives at those rows, bit for bit; its backward takes
    dlogits of that shape. The output layer (GCN's second propagation,
    GAT's output attention) runs on those rows only.
    """
    if isinstance(operator, GcnOperator):
        return GcnOperator(norm_adj=operator.norm_adj[rows], ax=operator.ax)
    return GatRowView(adj=operator, row_adj=operator[rows], rows=rows)


def forward_with_operator(params, operator, features, mode="eval", dropout_seed=0):
    """Logits for the operator's rows (every node for a full operator) and
    the cache its backward needs."""
    if params.config.architecture == "gcn":
        return _gcn_pass(params, operator, features, mode, dropout_seed)
    if not isinstance(operator, GatRowView):  # the all-rows view
        operator = GatRowView(adj=operator, row_adj=operator, rows=slice(None))
    return _gat_pass(params, operator, features, mode, dropout_seed)


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
