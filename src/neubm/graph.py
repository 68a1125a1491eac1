"""Core graph representation, adjacency construction, and dataset statistics.

Graphs are undirected and immutable: features are a dense float64 matrix,
edges a canonical (u < v, sorted, duplicate-free) integer array. All
operations here are pure functions, safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (
    DensityUndefinedError,
    EmptyScopeError,
    GraphValidationError,
)

MASK_NAMES = ("train", "val", "test")


# endpoints below this bound pack into one int64 key lo * span + hi
_MAX_ENDPOINT = 2**31


def canonical_edges(edges) -> np.ndarray:
    """Return edges as an (m, 2) int64 array with u < v, sorted, deduplicated.

    Self-pairs and negative endpoints are rejected; orientation is
    normalized (v < u is flipped).
    """
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if arr.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if np.any(arr[:, 0] == arr[:, 1]):
        raise GraphValidationError("self-pairs are not allowed in the edge list")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if lo.min() < 0:
        raise GraphValidationError("edge endpoints must be non-negative")
    span = int(hi.max()) + 1
    if span > _MAX_ENDPOINT:
        raise GraphValidationError(f"edge endpoint {span - 1} is too large")
    # sorting the packed keys sorts the pairs lexicographically; keys that
    # already increase strictly are sorted and duplicate-free
    keys = lo * span + hi
    if np.any(keys[1:] <= keys[:-1]):
        keys = np.sort(keys)
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    return np.stack([keys // span, keys % span], axis=1)


@dataclass(frozen=True)
class Graph:
    """Undirected attributed graph.

    labels may contain -1 as the "unlabeled" sentinel; labeled entries must
    lie in [0, num_classes). Masks, when present, are boolean per-node
    vectors; "train"/"val"/"test" must be pairwise disjoint.
    """

    num_nodes: int
    features: np.ndarray
    edges: np.ndarray
    labels: np.ndarray | None = None
    num_classes: int | None = None
    masks: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        if feats.ndim != 2 or feats.shape[0] != self.num_nodes:
            raise GraphValidationError(
                f"features must be (num_nodes, d); got {feats.shape} for "
                f"{self.num_nodes} nodes"
            )
        if not np.all(np.isfinite(feats)):
            raise GraphValidationError("features must be finite (no NaN or inf)")
        edges = canonical_edges(self.edges)
        if edges.size and edges.max() >= self.num_nodes:
            raise GraphValidationError(
                f"edge endpoint out of range [0, {self.num_nodes})"
            )
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (self.num_nodes,):
                raise GraphValidationError("labels must be one entry per node")
            if self.num_classes is None:
                raise GraphValidationError("labels present but num_classes missing")
            if np.any(labels >= self.num_classes) or np.any(labels < -1):
                raise GraphValidationError(
                    f"labels must lie in [-1, {self.num_classes})"
                )
        masks = {}
        for name, m in self.masks.items():
            m = np.asarray(m, dtype=bool)
            if m.shape != (self.num_nodes,):
                raise GraphValidationError(f"mask {name!r} has wrong length")
            masks[name] = m
        for i, a in enumerate(MASK_NAMES):
            for b in MASK_NAMES[i + 1 :]:
                if a in masks and b in masks and np.any(masks[a] & masks[b]):
                    raise GraphValidationError(f"masks {a!r} and {b!r} overlap")
        for arr in (feats, edges, labels, *masks.values()):
            if arr is not None:
                arr.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "masks", masks)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def mask(self, name: str) -> np.ndarray:
        if name not in self.masks:
            raise GraphValidationError(f"graph has no {name!r} mask")
        return self.masks[name]

    def with_masks(self, masks: dict[str, np.ndarray]) -> "Graph":
        return Graph(
            num_nodes=self.num_nodes,
            features=self.features,
            edges=self.edges,
            labels=self.labels,
            num_classes=self.num_classes,
            masks=masks,
        )


def build_adjacency(graph: Graph, add_self_loops: bool = True) -> sp.csr_matrix:
    """Binary symmetric adjacency in CSR form; with add_self_loops the
    diagonal is 1. Column indices are strictly increasing within each row."""
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    if add_self_loops:
        diag = np.arange(graph.num_nodes)
        rows = np.concatenate([rows, diag])
        cols = np.concatenate([cols, diag])
    n = graph.num_nodes
    adj = sp.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n))
    adj.sum_duplicates()
    adj.sort_indices()
    return adj


def csr_rows(adj: sp.csr_matrix) -> np.ndarray:
    """Row index of every stored entry, in storage order."""
    return np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))


def with_values(adj: sp.csr_matrix, values: np.ndarray) -> sp.csr_matrix:
    """The same sparsity structure as ``adj`` with new stored values."""
    return sp.csr_matrix((values, adj.indices, adj.indptr), shape=adj.shape)


def symmetric_normalize(adj: sp.csr_matrix) -> sp.csr_matrix:
    """Rescale entry (i, j) to a_ij / sqrt(deg_i * deg_j).

    Degrees are the row sums of ``adj``. A zero-degree node keeps an all-zero
    row/column; with self-loops added beforehand this never happens.
    """
    rows = csr_rows(adj)
    deg = np.bincount(rows, weights=adj.data, minlength=adj.shape[0])
    with np.errstate(divide="ignore"):
        dinv = 1.0 / np.sqrt(deg)
    dinv[~np.isfinite(dinv)] = 0.0
    return with_values(adj, adj.data * dinv[rows] * dinv[adj.indices])


def edge_density(num_nodes: int, num_edges: int) -> float:
    """Undirected edge density 2|E| / (n(n-1)); undefined for n < 2."""
    if num_nodes < 2:
        raise DensityUndefinedError(
            f"edge density undefined for {num_nodes} node(s)"
        )
    return 2.0 * num_edges / (num_nodes * (num_nodes - 1))


@dataclass(frozen=True)
class DatasetStats:
    """Average size/density plus feature mean and covariance of a dataset.

    sigma_node is the population covariance: a (d, d) matrix in "full" mode
    or the (d,) per-dimension variance vector in "diagonal" mode.
    """

    n_bar: float
    d_bar: float
    mu_node: np.ndarray
    sigma_node: np.ndarray
    source_node_count: int
    covariance_mode: str = "full"

    def __post_init__(self):
        if not 0.0 <= self.d_bar <= 1.0:
            raise GraphValidationError(f"d_bar must lie in [0, 1], got {self.d_bar}")
        if self.covariance_mode not in ("full", "diagonal"):
            raise GraphValidationError(
                f"unknown covariance mode {self.covariance_mode!r}"
            )


def compute_dataset_stats(
    graph: Graph,
    scope: str = "all_nodes",
    covariance_mode: str = "full",
) -> DatasetStats:
    """Extract n_bar, d_bar and the feature mean/covariance from one graph.

    scope "all_nodes" uses every node; "train_mask" restricts to the train
    mask and the induced subgraph (both edge endpoints in scope). Covariance
    is population (divide by the node count).
    """
    if scope == "all_nodes":
        idx = np.arange(graph.num_nodes)
    elif scope == "train_mask":
        idx = np.flatnonzero(graph.mask("train"))
    else:
        raise GraphValidationError(f"unknown scope {scope!r}")
    n = idx.shape[0]
    if n == 0:
        raise EmptyScopeError(f"scope {scope!r} selects no nodes")
    if n < 2:
        raise DensityUndefinedError("need at least 2 in-scope nodes for density")

    in_scope = np.zeros(graph.num_nodes, dtype=bool)
    in_scope[idx] = True
    keep = in_scope[graph.edges[:, 0]] & in_scope[graph.edges[:, 1]]
    m = int(np.count_nonzero(keep))

    x = graph.features[idx]
    mu = x.mean(axis=0)
    centered = x - mu
    if covariance_mode == "diagonal":
        sigma = np.mean(centered * centered, axis=0)
    else:
        sigma = centered.T @ centered / n

    return DatasetStats(
        n_bar=float(n),
        d_bar=edge_density(n, m),
        mu_node=mu,
        sigma_node=sigma,
        source_node_count=n,
        covariance_mode=covariance_mode,
    )
