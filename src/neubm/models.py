"""Two-layer GNN forward passes (convolutional and attention variants) with
hand-written reverse-mode gradients, plus parameter containers and a JSON
checkpoint format.

Both architectures propagate over one :class:`Operator`: a graph's
self-looped CSR adjacency plus the input of layer 1. GCN stores normalized
weights as the values and A_hat . X as the input, once per graph; GAT keeps
X and aggregates with per-edge attention coefficients as values, so no N x
N array is ever built. A row view of an operator (:func:`row_view`) returns
the logits of chosen nodes only, which is all the training loss and
validation read.

Everything runs in float64; forward and backward are deterministic given
the explicit dropout seed, so training trajectories are bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, NumericError, build, check_seed, read_json
from .graph import Graph, build_adjacency, symmetric_normalize, with_values

LEAKY_SLOPE = 0.2  # attention score nonlinearity
ARCHITECTURES = ("gcn", "gat")


@dataclass(frozen=True)
class ModelConfig:
    architecture: str  # one of ARCHITECTURES
    input_dim: int
    hidden_dim: int
    num_classes: int
    dropout: float = 0.5
    num_heads: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if min(self.input_dim, self.hidden_dim, self.num_classes) < 1:
            raise ConfigError("input_dim, hidden_dim and num_classes must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.num_heads < 1:
            raise ConfigError("num_heads must be >= 1")
        check_seed(self)


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
        if flat.shape != (self.size,):
            raise DataError(
                f"flat vector has shape {flat.shape}, expected ({self.size},)"
            )
        out, pos = [], 0
        for a in self.arrays:
            out.append(flat[pos : pos + a.size].reshape(a.shape).copy())
            pos += a.size
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


def array_names(config: ModelConfig) -> list[str]:
    """Names of the arrays :func:`init_params` makes, in their order."""
    if config.architecture == "gcn":
        return ["W0", "W1"]
    names = []
    for i in range(config.num_heads):
        names += [f"head{i}.W", f"head{i}.a_src", f"head{i}.a_dst"]
    return names + ["out.W", "out.a_src", "out.a_dst"]


def _keep_digits(keep):
    """The base-256 digits of ``keep`` in (0, 1), most significant first; a
    float is dyadic, so the expansion ends."""
    num, den = keep.as_integer_ratio()
    digits = []
    while num:
        digit, num = divmod(num * 256, den)
        digits.append(digit)
    return digits


def _random_bytes(rng, count):
    """``count`` bytes of ``rng``'s raw 64-bit words, least significant byte
    first whatever the host's byte order."""
    words = rng.bit_generator.random_raw(-(-count // 8))
    return words.astype("<u8", copy=False).view(np.uint8)[:count]


def _dropout_mask(rng, shape, rate, active=True):
    """Inverted dropout: kept entries scaled by 1/keep so eval needs no
    rescaling. Entries where ``active`` is False are dropped as well,
    after the draw, so the random stream does not depend on it.

    Each entry is kept with probability exactly keep = 1 - rate: it reads
    a random byte per base-256 digit of keep, as the digits of a uniform
    u, and is kept iff u < keep. A byte below the digit keeps the entry,
    one above drops it, and the entries tied with it (about 1 in 256) each
    read one more byte, in index order, for the next digit; a tie on the
    last digit drops the entry, as u >= keep there. The first round reads
    byte j of word w for entry 8w + j in C order.
    """
    keep = 1.0 - rate
    kept = np.ones(shape, dtype=bool)
    if keep < 1.0:  # else 1 - rate rounds to 1 and every entry is kept
        digits = _keep_digits(keep)
        flat = kept.reshape(-1)
        u = _random_bytes(rng, flat.size)
        np.less(u, digits[0], out=flat)
        tied = np.flatnonzero(u == digits[0]) if len(digits) > 1 else ()
        for digit in digits[1:]:
            if len(tied) == 0:
                break
            u = _random_bytes(rng, len(tied))
            flat[tied[u < digit]] = True
            tied = tied[u == digit]
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
    """dz1, in place in dh1, through the ReLU and dropout of :func:`_relu_dropout`."""
    dh1 *= gate if gate is not None else z1 > 0.0
    return dh1


# ---------------------------------------------------------------------------
# the propagation operator


@dataclass(frozen=True)
class Operator:
    """The propagation operator of one graph, for either architecture.

    ``adj``: the full self-looped CSR adjacency (GCN: normalized values;
    GAT: structure only). ``x``: what layer 1 multiplies by its weights
    (GCN: A_hat . X; GAT: X), so the operator carries its graph's features.
    The output layer runs on the CSR rows ``rows`` of ``adj``, held as
    ``row_adj``. The full operator has every row: ``row_adj`` is ``adj``.
    ``cache`` holds a GCN row view's ``row_adj`` transpose as a CSR, stored
    by its first backward (see :func:`_row_adj_t`).
    """

    adj: sp.csr_matrix
    x: np.ndarray
    rows: np.ndarray | slice
    row_adj: sp.csr_matrix
    cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def prepare_operator(graph: Graph, config: ModelConfig) -> Operator:
    """The full :class:`Operator` of ``graph`` for ``config``'s architecture."""
    adj = build_adjacency(graph, add_self_loops=True)
    x = graph.features
    if config.architecture == "gcn":
        adj = symmetric_normalize(adj)
        x = adj @ x
    return Operator(adj=adj, x=x, rows=slice(None), row_adj=adj)


def row_view(operator: Operator, rows: np.ndarray) -> Operator:
    """The operator restricted to the output nodes ``rows`` (sorted indices).

    A forward through the view returns the (len(rows), C) logits that the
    full operator gives at those rows, bit for bit; its backward takes
    dlogits of that shape. The output layer (GCN's second propagation,
    GAT's output attention) runs on those rows only; their CSR is sliced
    once per view, not per pass.
    """
    return replace(operator, rows=rows, row_adj=operator.adj[rows])


# ---------------------------------------------------------------------------
# GCN


def _gcn_pass(params, operator, mode, dropout_seed, hidden):
    """logits = A_hat . (dropout(relu(A_hat . X . W0)) . W1)

    ``hidden`` is z1 = A_hat . X . W0 of an earlier pass with the same
    params, or None. Layer 2 projects to the class width before it
    propagates, and only to the operator's rows.
    """
    w0, w1 = params.arrays
    z1 = operator.x @ w0 if hidden is None else hidden
    h1, gate = _relu_dropout(z1, params.config, mode, dropout_seed)
    logits = operator.row_adj @ (h1 @ w1)
    return logits, (z1, gate, h1)


def _row_adj_t(operator):
    """row_adj^T for the GCN backward. ``row_adj.T`` wraps row_adj as a new
    CSC object on every call, so a row view stores the transpose as a CSR
    on first use; the product is bit-identical. The full operator's is that
    CSC wrapper of adj, so it holds no second copy of the graph."""
    if isinstance(operator.rows, slice):
        return operator.row_adj.T
    if "row_adj_t" not in operator.cache:
        operator.cache["row_adj_t"] = operator.row_adj.T.tocsr()
    return operator.cache["row_adj_t"]


def _gcn_backward(params, operator, dlogits, cache):
    w0, w1 = params.arrays
    z1, gate, h1 = cache
    adl = _row_adj_t(operator) @ dlogits
    dw1 = h1.T @ adl
    dz1 = _gate_grad(adl @ w1.T, z1, gate)
    dw0 = operator.x.T @ dz1
    return (dw0, dw1)


# ---------------------------------------------------------------------------
# GAT


def _row_spans(adj):
    """Each CSR row's first stored entry and number of stored entries: a row's
    value spreads to its entries as np.repeat(v, sizes), cheaper than a gather."""
    return adj.indptr[:-1], np.diff(adj.indptr)


def _slopes(pos):
    """LeakyReLU's slopes, exactly 1.0 where ``pos`` (score > 0) and
    LEAKY_SLOPE elsewhere; several times cheaper than np.where here."""
    return pos * (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE


def _attention_layer(h, w, a_src, a_dst, adj, rows=None, out=None):
    """Single attention head: softmax-normalized neighbor aggregation.

    ``adj`` holds the self-looped CSR rows of the output nodes ``rows`` (an
    index array or slice) over all n columns, or every node's row when
    ``rows`` is None. Scores are LeakyReLU(a_src . Wh_i + a_dst . Wh_j),
    one per stored entry (i, j); the softmax runs over each row's stored
    entries. Self-loops keep every row nonempty. Returns the output rows,
    written into ``out`` when given, and a cache (side, each entry's
    LeakyReLU sign e > 0 as a bool, the attention CSR A_alpha, output,
    per-row softmax sums) for the backward pass.

    A head over every node (layer 1) runs its sparse products on the
    narrower side: when h is strictly narrower than its projection it takes
    the scores from h . (W . a) and returns (A_alpha . h) . W, and side is
    A_alpha . h. Otherwise, and always on given rows, it returns A_alpha .
    g and side is g = h . W: a dense product after a row-restricted
    aggregation would not round a row as the full operator does (BLAS takes
    a matrix-vector path for a single row), and a row view must match it
    bit for bit.
    """
    starts, sizes = _row_spans(adj)
    narrow = rows is None and h.shape[1] < w.shape[1]
    if narrow:
        s_src, s_dst = h @ (w @ a_src), h @ (w @ a_dst)
    else:
        g = h @ w
        s_src, s_dst = g @ a_src, g @ a_dst
    if rows is not None:
        s_src = s_src[rows]
    # one edge buffer takes the scores, LeakyReLU, the row-max shift, the
    # exponential and the normalisation in turn
    e = np.repeat(s_src, sizes)
    e += s_dst[adj.indices]
    pos = e > 0.0
    e *= _slopes(pos)
    e -= np.repeat(np.maximum.reduceat(e, starts), sizes)
    np.exp(e, out=e)
    # each row's top entry gives exp(0) = 1, so a sum is >= 1 unless a score
    # of the row overflowed (inf - inf) and every coefficient of it is NaN
    sums = np.add.reduceat(e, starts)
    if not np.all(np.isfinite(sums)):
        raise NumericError("non-finite attention coefficients")
    e /= np.repeat(sums, sizes)
    att = with_values(adj, e)
    if narrow:
        side = att @ h
        out = np.matmul(side, w, out=out)
    else:
        side = g
        if out is None:
            out = att @ g
        else:
            out[...] = att @ g
    return out, (side, pos, att, out, sums)


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _first_row_max(alpha, row_max, starts, sizes):
    """Storage index of the first entry of each nonempty CSR row that equals
    the row's largest entry ``row_max``: the first hit of the row-max mask
    at or after the row's start."""
    hits = np.flatnonzero(alpha == np.repeat(row_max, sizes))
    return hits[np.searchsorted(hits, starts)]


def _attention_backward(dout, h, w, a_src, a_dst, cache, adj, rows=None,
                        input_grad=True):
    """Gradients (dh, dw, da_src, da_dst) of one head from ``dout`` at its
    output rows, given the ``adj`` and ``rows`` of its forward (see
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
    side, pos, att, out, sums = cache
    starts, sizes = _row_spans(adj)
    narrow = side.shape[1] < w.shape[1]  # side is A_alpha . h, not g
    rows = slice(None) if rows is None else rows
    p, agg, dp = (h, side, dout @ w.T) if narrow else (side, out, dout)
    alpha = att.data
    # a row's top exponential is exp(0) = 1, and correctly rounded division
    # is monotone, so 1 / sum is its largest coefficient bit for bit
    top = _first_row_max(alpha, 1.0 / sums, starts, sizes)
    top_col = att.indices[top]
    b = with_values(att, alpha.copy())  # A_alpha without the top entries, for u
    b.data[top] = 0.0
    u = p[top_col]
    u *= np.add.reduceat(b.data, starts)[:, None]
    u -= b @ p
    u = _rowdot(dp, u)
    b.data *= _slopes(pos)  # now B
    top_de = alpha[top] * _slopes(pos[top]) * u
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


def _gat_pass(params, operator, mode, dropout_seed, hidden):
    """Layer 1 on every node, since attention reads all hidden states; the
    output layer on the operator's rows, which it is always given (a slice
    of all of them for the full operator), so it aggregates its projection.
    ``hidden`` is the layer-1 state of an earlier pass with the same
    params, or None: (head caches, z1), where each head's output is a view
    into z1, the concatenated head outputs."""
    cfg = params.config
    k, width = cfg.num_heads, cfg.hidden_dim
    if hidden is None:
        z1 = np.empty((operator.x.shape[0], k * width))
        hidden = ([
            _attention_layer(operator.x, *params.arrays[3 * i : 3 * i + 3],
                             operator.adj, out=z1[:, i * width : (i + 1) * width])[1]
            for i in range(k)
        ], z1)
    h1, gate = _relu_dropout(hidden[1], cfg, mode, dropout_seed)
    w1, a1_s, a1_d = params.arrays[3 * k : 3 * k + 3]
    logits, out_cache = _attention_layer(h1, w1, a1_s, a1_d, operator.row_adj,
                                         operator.rows)
    return logits, (hidden, gate, h1, out_cache)


def _gat_backward(params, operator, dlogits, cache):
    cfg = params.config
    k = cfg.num_heads
    (head_caches, z1), gate, h1, out_cache = cache
    w1, a1_s, a1_d = params.arrays[3 * k : 3 * k + 3]
    dh1, dw1, da1_s, da1_d = _attention_backward(
        dlogits, h1, w1, a1_s, a1_d, out_cache, operator.row_adj, operator.rows
    )
    dz1 = _gate_grad(dh1, z1, gate)
    grads = []
    h = cfg.hidden_dim
    for i in range(k):
        w, a_s, a_d = params.arrays[3 * i : 3 * i + 3]
        _, dw, da_s, da_d = _attention_backward(
            dz1[:, i * h : (i + 1) * h], operator.x, w, a_s, a_d, head_caches[i],
            operator.adj, input_grad=False,
        )
        grads.extend([dw, da_s, da_d])
    grads.extend([dw1, da1_s, da1_d])
    return tuple(grads)


# ---------------------------------------------------------------------------
# shared entry points


def forward_with_operator(params, operator: Operator, mode="eval", dropout_seed=0,
                          hidden=None):
    """Logits for the operator's rows (every node for a full operator) and
    the cache its backward needs.

    Layer 1 runs on every node and does not depend on the rows, the mode or
    the dropout seed. ``cache[0]`` is its state (GCN: z1 = A_hat . X . W0;
    GAT: the per-head caches and z1, of which each head's output is a
    view). Passing that state as ``hidden`` to a later call with the same
    params and an operator of the same graph skips layer 1 and gives
    bit-identical results; None recomputes it.
    """
    width, expected = operator.x.shape[1], params.config.input_dim
    if width != expected:
        raise DataError(f"operator input has width {width}, model expects {expected}")
    model_pass = _gcn_pass if params.config.architecture == "gcn" else _gat_pass
    return model_pass(params, operator, mode, dropout_seed, hidden)


def backward_with_operator(params, operator: Operator, dlogits, cache):
    """Parameter gradients from dlogits at the operator's rows."""
    backward = _gcn_backward if params.config.architecture == "gcn" else _gat_backward
    return backward(params, operator, dlogits, cache)


def predict_logits(params: ModelParams, graph: Graph) -> np.ndarray:
    """Uncalibrated per-node logits, eval mode."""
    logits, _ = forward_with_operator(params, prepare_operator(graph, params.config))
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
    """Read a file written by :func:`save_checkpoint`; any fault in it
    raises ConfigError naming the file."""
    payload = read_json(path, "checkpoint", ConfigError)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError("not a model checkpoint", file=path)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(
            f"unsupported checkpoint version {payload.get('version')}", file=path
        )
    config = build("model_config", ModelConfig, payload.get("model_config"),
                   ConfigError, path)
    template = init_params(config)
    try:
        return template.from_flat(
            np.asarray(payload.get("params_flat"), dtype=np.float64)
        )
    except (TypeError, ValueError, DataError, NumericError) as exc:
        raise ConfigError(f"params_flat: {exc}", file=path) from None
