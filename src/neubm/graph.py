"""Core graph representation, adjacency construction, and dataset statistics.

Graphs are undirected and immutable: features are a dense float64 matrix,
edges a canonical (u < v, sorted, duplicate-free) integer array. All
operations here are pure functions, safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError

# endpoints below this bound pack into one int64 key lo * span + hi
_MAX_ENDPOINT = 2**31


def bernoulli_cells(rng: np.random.Generator, cells: int, p: float) -> np.ndarray:
    """Sorted indices of the hits when each of ``range(cells)`` is hit
    independently with probability ``p``, in time and memory O(hits).

    The gaps between successive hits are i.i.d. Geometric(p), so the hits
    are running sums of geometric skips (Batagelj & Brandes, Phys. Rev. E
    2005). Each round draws enough skips to pass the end with near
    certainty (the expected remaining hits w plus 6 sqrt(w) + 16) and tops
    up from the last hit if it falls short. p <= 0 (no hits) and p >= 1
    (every cell) are exact and draw nothing.
    """
    if cells <= 0 or p <= 0.0:
        return np.zeros(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(cells, dtype=np.int64)
    chunks, last = [], -1
    while True:
        w = (cells - 1 - last) * p
        skips = rng.geometric(p, size=int(w + 6.0 * np.sqrt(w) + 16))
        # any skip over cells + 1 passes the end from every last >= -1;
        # capping it there keeps the running sum from overflowing at tiny p
        hits = np.cumsum(np.minimum(skips, cells + 1, out=skips), out=skips)
        hits += last
        if hits[-1] >= cells:
            chunks.append(hits[: np.searchsorted(hits, cells)])
            return np.concatenate(chunks)
        chunks.append(hits)
        last = int(hits[-1])


def bernoulli_pairs(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Each pair i < j of ``n`` nodes wired with probability ``p``: the hits
    above the diagonal of :func:`bernoulli_cells` over the n x n grid, as
    canonical edges (sorted, no duplicates), in O(n + edges) time and memory."""
    i, j = np.divmod(bernoulli_cells(rng, n * n, p), n)
    upper = i < j
    return np.stack([i[upper], j[upper]], axis=1)


def canonical_edges(edges) -> np.ndarray:
    """Return edges as an (m, 2) int64 array with u < v, sorted, deduplicated.

    Self-pairs and negative endpoints are rejected; orientation is
    normalized (v < u is flipped).
    """
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if arr.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if np.any(arr[:, 0] == arr[:, 1]):
        raise DataError("self-pairs are not allowed in the edge list")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    if lo.min() < 0:
        raise DataError("edge endpoints must be non-negative")
    span = int(hi.max()) + 1
    if span > _MAX_ENDPOINT:
        raise DataError(f"edge endpoint {span - 1} is too large")
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
    lie in [0, num_classes).
    """

    num_nodes: int
    features: np.ndarray
    edges: np.ndarray
    labels: np.ndarray | None = None
    num_classes: int | None = None

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        if feats.ndim != 2 or feats.shape[0] != self.num_nodes:
            raise DataError(
                f"features must be (num_nodes, d); got {feats.shape} for "
                f"{self.num_nodes} nodes"
            )
        if not np.all(np.isfinite(feats)):
            raise DataError("features must be finite (no NaN or inf)")
        edges = canonical_edges(self.edges)
        if edges.size and edges.max() >= self.num_nodes:
            raise DataError(
                f"edge endpoint out of range [0, {self.num_nodes})"
            )
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (self.num_nodes,):
                raise DataError("labels must be one entry per node")
            if self.num_classes is None:
                raise DataError("labels present but num_classes missing")
            if np.any(labels >= self.num_classes) or np.any(labels < -1):
                raise DataError(
                    f"labels must lie in [-1, {self.num_classes})"
                )
        for arr in (feats, edges, labels):
            if arr is not None:
                arr.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", labels)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]


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
        raise DataError(
            f"edge density undefined for {num_nodes} node(s)"
        )
    return 2.0 * num_edges / (num_nodes * (num_nodes - 1))


@dataclass(frozen=True)
class DatasetStats:
    """Average size/density plus feature mean and covariance of a dataset.

    sigma_node is the full (d, d) population covariance; a neutral config's
    covariance_mode decides how much of it the sampler uses.
    """

    n_bar: float
    d_bar: float
    mu_node: np.ndarray
    sigma_node: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.d_bar <= 1.0:
            raise DataError(f"d_bar must lie in [0, 1], got {self.d_bar}")
        d = np.shape(self.mu_node)[0]
        if np.shape(self.sigma_node) != (d, d):
            raise DataError(
                f"sigma_node must be a ({d}, {d}) matrix, got shape "
                f"{np.shape(self.sigma_node)}"
            )


def compute_dataset_stats(graph: Graph) -> DatasetStats:
    """Extract n_bar, d_bar and the feature mean/covariance from all nodes
    and edges of one graph. Covariance is population (divide by the node
    count).
    """
    n = graph.num_nodes
    d_bar = edge_density(n, graph.num_edges)  # first: it rejects n < 2
    x = graph.features
    mu = x.mean(axis=0)
    centered = x - mu
    return DatasetStats(
        n_bar=float(n), d_bar=d_bar, mu_node=mu, sigma_node=centered.T @ centered / n
    )
