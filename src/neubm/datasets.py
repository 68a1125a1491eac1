"""Dataset plumbing: canonical on-disk format, synthetic imbalanced graphs,
stratified splits, and noise injection.

Canonical dataset directory layout::

    meta.json      {"num_nodes": N, "num_features": F, "num_classes": C,
                    "directed": false}
    features.csv   one row per node, F comma-separated reals
    edges.csv      one "u,v" pair per line, 0-based, u < v, no duplicates
    labels.csv     one integer per line, -1 for unlabeled
    masks.json     optional, {"train": [idx...], "val": [...], "test": [...]};
                   read by stored_split alone, never by load_canonical

All generators and the noise injector are pure functions of their explicit
seeds, so repeated calls are byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import (ConfigError, DataError, check_finite, check_seed, read_json,
                     read_lines)
from .graph import Graph, bernoulli_cells, bernoulli_pairs
from .metrics import imbalance_ratio

META_KEYS = ("num_nodes", "num_features", "num_classes", "directed")
SPLIT_PARTS = ("train", "val", "test")


# ---------------------------------------------------------------------------
# canonical format


def save_canonical(graph: Graph, path) -> None:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "num_nodes": graph.num_nodes,
        "num_features": graph.num_features,
        "num_classes": graph.num_classes if graph.num_classes is not None else 0,
        "directed": False,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    np.savetxt(out / "features.csv", graph.features, fmt="%.17g", delimiter=",")
    with (out / "edges.csv").open("w") as fh:
        for u, v in graph.edges:
            fh.write(f"{u},{v}\n")
    labels = (
        graph.labels
        if graph.labels is not None
        else np.full(graph.num_nodes, -1, dtype=np.int64)
    )
    with (out / "labels.csv").open("w") as fh:
        for lab in labels:
            fh.write(f"{lab}\n")


def load_canonical(path) -> Graph:
    """Load a canonical dataset directory into a validated Graph.

    A missing or malformed file raises DataError naming it, and the
    line for a bad row.
    """
    root = Path(path)
    meta_file = root / "meta.json"
    meta = read_json(meta_file, "dataset header", DataError)
    missing = [key for key in META_KEYS if key not in meta]
    if missing:
        raise DataError(f"header missing keys {missing}", file=meta_file)
    if meta["directed"] is not False:
        raise DataError(f"'directed' must be false, got {meta['directed']!r}",
                        file=meta_file)
    n, d, c = (meta[key] for key in META_KEYS[:3])
    # type(v) is int: an int, never a bool, which would read as 0 or 1
    if not all(type(v) is int and v >= 0 for v in (n, d, c)):
        raise DataError("header counts must be nonnegative integers",
                        file=meta_file)

    def feature_row(line):
        parts = line.split(",")
        if len(parts) != d:
            raise ValueError(f"expected {d} features, found {len(parts)}")
        row = [float(p) for p in parts]
        if not np.all(np.isfinite(row)):
            raise ValueError("non-finite feature value (NaN or inf)")
        return row

    def edge(line):
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError("expected 'u,v' pair")
        u, v = int(parts[0]), int(parts[1])
        if not 0 <= u < v < n:
            raise ValueError(f"edges must satisfy 0 <= u < v < {n}, got ({u},{v})")
        return u, v

    def label(line):
        lab = int(line)
        if not -1 <= lab < c:  # c = 0: an unlabeled dataset
            raise ValueError(f"label {lab} out of range [-1, {c})")
        return lab

    features = _rows(root / "features.csv", feature_row, n)
    edges = _rows(root / "edges.csv", edge)
    if len(set(edges)) != len(edges):
        raise DataError("duplicate edges", file=root / "edges.csv")
    labels = np.asarray(_rows(root / "labels.csv", label, n), dtype=np.int64)
    labeled = bool(np.any(labels != -1))
    return Graph(
        num_nodes=n,
        features=np.asarray(features, dtype=np.float64).reshape(n, d),
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        labels=labels if labeled else None,
        num_classes=c if labeled else None,
    )


def _rows(path: Path, parse, count: int | None = None) -> list:
    """``parse`` of each non-blank line of one dataset file, checking the
    row count when one is given."""
    rows = read_lines(path, path.name, DataError, parse)
    if count is not None and len(rows) != count:
        raise DataError(f"expected {count} rows, found {len(rows)}",
                        file=path)
    return rows


def describe(graph: Graph) -> str:
    """Summary line: node/edge/feature/class counts plus both imbalance orientations."""
    parts = [
        f"{graph.num_nodes} nodes",
        f"{graph.num_edges} edges",
        f"{graph.num_features} features",
        f"{graph.num_classes or 0} classes",
    ]
    line = ", ".join(parts)
    if graph.labels is not None and np.any(graph.labels >= 0):
        rho = imbalance_ratio(graph.labels)
        line += f", rho={rho:.4g} (max/min), 1/rho={1.0 / rho:.4g} (min/max)"
    return line


# ---------------------------------------------------------------------------
# synthetic imbalanced graphs (planted partition with controllable skew)


@dataclass(frozen=True)
class SbmConfig:
    """Block-model generator config.

    Class sizes interpolate geometrically so the largest/smallest ratio is
    rho; per-class features are isotropic Gaussians whose means sit at
    mutual distance class_mean_separation (requires feature_dim >= num_classes).
    """

    num_classes: int
    total_nodes: int
    rho: float
    p_intra: float
    p_inter: float
    feature_dim: int
    class_mean_separation: float = 1.0
    feature_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # NaN passes every range check below, and a NaN rho never generates
        check_finite(self, "rho", "class_mean_separation", "feature_std")
        check_seed(self)
        if self.num_classes < 1:
            raise ConfigError("need at least one class")
        if self.total_nodes < self.num_classes:
            raise ConfigError(
                f"{self.total_nodes} nodes cannot cover {self.num_classes} classes"
            )
        if self.rho < 1.0:
            raise ConfigError("rho is max/min and must be >= 1")
        if not (0.0 <= self.p_inter <= self.p_intra <= 1.0):
            raise ConfigError("require 0 <= p_inter <= p_intra <= 1")
        if self.feature_dim < self.num_classes:
            raise ConfigError(
                "feature_dim must be >= num_classes for equidistant class means"
            )
        if self.feature_std <= 0 or self.class_mean_separation < 0:
            raise ConfigError("feature_std > 0 and separation >= 0 required")


def largest_remainder(targets: np.ndarray, total: int, caps=None) -> np.ndarray:
    """Round nonnegative reals to integers summing to ``total``, none above
    its entry of ``caps`` when given.

    Floors first (clipped to the caps), then hands out the remainder one
    unit per entry and round by descending fractional part (ties broken
    toward the lower index), skipping entries at their cap.
    """
    targets = np.asarray(targets, dtype=np.float64)
    floor = np.floor(targets)
    no_cap = np.iinfo(np.int64).max
    caps = np.broadcast_to(no_cap if caps is None else caps, targets.shape)
    out = np.minimum(floor.astype(np.int64), caps)
    short = total - int(out.sum())
    if short < 0:
        raise ConfigError("targets exceed total")
    order = np.lexsort((np.arange(len(targets)), -(targets - floor)))
    while short > 0:
        free = order[out[order] < caps[order]]
        if free.size == 0:
            raise ConfigError(f"caps too tight to place all of {total}")
        out[free[:short]] += 1
        short -= min(short, free.size)
    return out


def sbm_class_sizes(config: SbmConfig) -> np.ndarray:
    """Geometric size profile from largest to smallest class."""
    c = config.num_classes
    if c == 1:
        return np.array([config.total_nodes], dtype=np.int64)
    ratio = config.rho ** (-1.0 / (c - 1))
    raw = ratio ** np.arange(c)
    sizes = largest_remainder(raw / raw.sum() * config.total_nodes, config.total_nodes)
    if sizes.min() < 1:
        raise ConfigError(
            f"rho={config.rho} with {config.total_nodes} nodes starves a class"
        )
    return sizes


def _class_means(config: SbmConfig) -> np.ndarray:
    # scaled standard basis: |mu_i - mu_j| = separation for all i != j
    means = np.zeros((config.num_classes, config.feature_dim))
    scale = config.class_mean_separation / np.sqrt(2.0)
    means[np.arange(config.num_classes), np.arange(config.num_classes)] = scale
    return means


def generate_sbm(config: SbmConfig) -> Graph:
    """Planted-partition graph with geometric class-size skew.

    Nodes are laid out class-contiguously; each unordered pair gets an edge
    with p_intra (same block) or p_inter (different blocks). Deterministic
    given config.seed.

    Each class-pair block draws its hits with :func:`bernoulli_cells` over
    its rows x cols grid, row-major, so time and memory are O(n + |E|); a
    diagonal block keeps the hits above its diagonal
    (:func:`bernoulli_pairs`). Each edge (lo, hi), lo < hi, is packed as
    the key lo * n + hi, and one sort of all keys leaves the edges
    canonical.
    """
    sizes = sbm_class_sizes(config)
    n = config.total_nodes
    labels = np.repeat(np.arange(config.num_classes), sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    rng = np.random.default_rng(config.seed)
    key_chunks = [np.zeros(0, dtype=np.int64)]
    for ci in range(config.num_classes):
        for cj in range(ci, config.num_classes):
            p = config.p_intra if ci == cj else config.p_inter
            rows, cols = int(sizes[ci]), int(sizes[cj])
            if ci == cj:
                iu, ju = bernoulli_pairs(rng, rows, p).T
            else:
                iu, ju = np.divmod(bernoulli_cells(rng, rows * cols, p), cols)
            key_chunks.append((offsets[ci] + iu) * n + (offsets[cj] + ju))
    keys = np.sort(np.concatenate(key_chunks))
    edges = np.stack(np.divmod(keys, n), axis=1)

    means = _class_means(config)
    features = means[labels] + rng.normal(
        0.0, config.feature_std, size=(n, config.feature_dim)
    )
    return Graph(
        num_nodes=n,
        features=features,
        edges=edges,
        labels=labels,
        num_classes=config.num_classes,
    )


# ---------------------------------------------------------------------------
# splits


@dataclass(frozen=True)
class SplitAssignment:
    """A split as the sorted int64 node indices of each of its parts."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def empty_parts(self) -> list[str]:
        """The names of the parts that hold no node."""
        return [name for name in SPLIT_PARTS if not len(getattr(self, name))]


def save_masks(split: SplitAssignment, path) -> None:
    """Write ``split`` as ``path``/masks.json, the file :func:`stored_split`
    reads."""
    payload = {name: getattr(split, name).tolist() for name in sorted(SPLIT_PARTS)}
    (Path(path) / "masks.json").write_text(json.dumps(payload, indent=2) + "\n")


def stored_split(path, num_nodes: int) -> SplitAssignment | None:
    """The split in the masks.json of the dataset directory ``path``, whose
    graph has ``num_nodes`` nodes, or None without one.

    Each part is read as a set: its indices, JSON ints in [0, num_nodes),
    are sorted and repeats dropped. A key other than train/val/test, a
    missing or empty part, or two parts that share a node is a DataError
    naming the file.
    """
    masks_file = Path(path) / "masks.json"
    if not masks_file.exists():
        return None
    parts = read_json(masks_file, "masks", DataError)
    if unknown := sorted(set(parts) - set(SPLIT_PARTS)):
        raise DataError(f"unknown split parts {unknown}", file=masks_file)
    for name, idx in parts.items():
        # type(i) is int: an int, never a bool, which would read as 0 or 1
        if not (isinstance(idx, list)
                and all(type(i) is int and 0 <= i < num_nodes for i in idx)):
            raise DataError(
                f"split part {name!r} must list node indices in [0, {num_nodes})",
                file=masks_file,
            )
    split = SplitAssignment(*(np.unique(np.array(parts.get(name, []), dtype=np.int64))
                              for name in SPLIT_PARTS))
    for a, b in combinations(SPLIT_PARTS, 2):
        if np.intersect1d(getattr(split, a), getattr(split, b)).size:
            raise DataError(f"split parts {a!r} and {b!r} overlap", file=masks_file)
    if empty := split.empty_parts():
        raise DataError(f"the stored split has no {' or '.join(empty)} nodes",
                        file=masks_file)
    return split


def stratified_split(
    graph: Graph,
    train_frac: float,
    val_frac: float,
    min_per_class: int,
    seed: int,
) -> SplitAssignment:
    """Class-proportional split with a minimum train count per class.

    Train counts per class follow largest-remainder rounding of the
    fractional targets, topped up to min_per_class where the proportional
    share falls short. Test counts are then allocated proportionally to
    class size (so test proportions track overall proportions within one
    node absent top-ups); val takes what remains. Unlabeled nodes (label
    -1) are excluded from all three sets.
    """
    if graph.labels is None or not np.any(graph.labels >= 0):
        raise DataError("stratified split needs labeled nodes")
    if train_frac < 0 or val_frac < 0 or train_frac + val_frac > 1:
        raise ConfigError("fractions must be nonnegative and sum to <= 1")
    labels = graph.labels
    classes = np.unique(labels[labels >= 0])
    rng = np.random.default_rng(seed)

    class_nodes = {}
    for c in classes:
        nodes = np.flatnonzero(labels == c)
        if len(nodes) < max(min_per_class, 1):
            raise ConfigError(
                f"class {c} has {len(nodes)} nodes, needs >= {max(min_per_class, 1)}"
            )
        class_nodes[c] = rng.permutation(nodes)

    sizes = np.array([len(class_nodes[c]) for c in classes])
    n_labeled = int(sizes.sum())
    train_counts = largest_remainder(
        train_frac * sizes, int(round(train_frac * n_labeled))
    )
    train_counts = np.maximum(train_counts, min_per_class)

    avail = sizes - train_counts
    val_total = min(int(round(val_frac * n_labeled)), int(avail.sum()))
    test_total = int(avail.sum()) - val_total
    test_counts = largest_remainder(
        sizes * (test_total / n_labeled), test_total, caps=avail
    )
    val_counts = avail - test_counts

    train, val, test = [], [], []
    for c, t, v in zip(classes, train_counts, val_counts):
        nodes = class_nodes[c]
        train.append(nodes[:t])
        val.append(nodes[t : t + v])
        test.append(nodes[t + v :])
    return SplitAssignment(
        train=np.sort(np.concatenate(train)),
        val=np.sort(np.concatenate(val)),
        test=np.sort(np.concatenate(test)),
    )


def kfold_splits(
    graph: Graph,
    k: int,
    train_frac: float,
    val_frac: float,
    min_per_class: int,
    seed: int,
) -> list[SplitAssignment]:
    """k independently stratified splits; fold i is drawn with seed + i."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    return [
        stratified_split(graph, train_frac, val_frac, min_per_class, seed + fold)
        for fold in range(k)
    ]


# ---------------------------------------------------------------------------
# noise injection


@dataclass(frozen=True)
class NoiseSpec:
    kind: str  # "feature" | "structural"
    level: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("feature", "structural"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.level <= 1.0:
            raise ConfigError("noise level must lie in [0, 1]")
        check_seed(self)


def inject_noise(graph: Graph, spec: NoiseSpec) -> Graph:
    """Perturb a fraction of nodes (feature kind) or edges (structural kind).

    feature: round(level*n) uniformly chosen nodes get zero-mean Gaussian
    noise with per-dimension std equal to the graph's own per-dimension
    feature std. structural: round(level*|E|) edges are removed and replaced
    by uniform random pairs absent from both the original and current edge
    sets, so exactly that many edges change while |E| is preserved.
    """
    if spec.level == 0.0:
        return graph
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "feature":
        n = graph.num_nodes
        k = int(round(spec.level * n))
        chosen = rng.choice(n, size=k, replace=False)
        std = graph.features.std(axis=0)
        feats = graph.features.copy()
        feats[chosen] += rng.normal(0.0, 1.0, size=(k, graph.num_features)) * std
        return replace(graph, features=feats)

    m = graph.num_edges
    k = int(round(spec.level * m))
    n = graph.num_nodes
    total_pairs = n * (n - 1) // 2
    if total_pairs - m < k:
        raise ConfigError("not enough absent pairs to rewire into")
    chosen = rng.choice(m, size=k, replace=False)
    kept = np.delete(graph.edges, chosen, axis=0)
    return replace(graph, edges=np.concatenate([kept, _absent_pairs(rng, graph, k)]))


def _absent_pairs(rng, graph: Graph, k: int) -> np.ndarray:
    """k distinct pairs u < v, none an edge of ``graph``, uniform over such
    pairs: ordered pairs are drawn in batches and the first k new ones are
    taken in draw order, which is rejection sampling one pair at a time.
    A pair is the key u * n + v; the taken keys are kept sorted, as the
    canonical edges give them."""
    n = graph.num_nodes
    taken = graph.edges[:, 0] * n + graph.edges[:, 1]
    total_pairs = n * (n - 1) // 2
    added = np.empty(0, dtype=np.int64)
    while added.size < k:
        need = k - added.size
        # a draw is new with probability (n-1)/n * free/total_pairs
        free = total_pairs - taken.size
        batch = need * n * total_pairs // ((n - 1) * free) * 5 // 4 + 64
        u, v = rng.integers(0, n, size=(2, batch))
        keys = (np.minimum(u, v) * n + np.maximum(u, v))[u != v]
        at = np.minimum(np.searchsorted(taken, keys), taken.size - 1)
        keys = keys[taken[at] != keys]
        keys, first = np.unique(keys, return_index=True)
        new = keys[np.argsort(first)][:need]
        added = np.concatenate([added, new])
        new = np.sort(new)
        taken = np.insert(taken, np.searchsorted(taken, new), new)
    return np.stack(np.divmod(added, n), axis=1)
