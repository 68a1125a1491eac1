"""Dataset plumbing: canonical on-disk format, synthetic imbalanced graphs,
stratified splits, and noise injection.

Canonical dataset directory layout::

    meta.json      {"num_nodes": N, "num_features": F, "num_classes": C,
                    "directed": false}
    features.csv   one row per node, F comma-separated reals
    edges.csv      one "u,v" pair per line, 0-based, u < v, no duplicates
    labels.csv     one integer per line, -1 for unlabeled
    masks.json     optional, {"train": [idx...], "val": [...], "test": [...]}

All generators and the noise injector are pure functions of their explicit
seeds, so repeated calls are byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DatasetParseError,
    GraphValidationError,
    InfeasibleError,
)
from .graph import Graph
from .metrics import imbalance_ratio

META_KEYS = ("num_nodes", "num_features", "num_classes", "directed")
# uniforms per strip of an SBM block (2 MB of float64); bounds the memory
# generate_sbm needs beyond its edges
SBM_STRIP_UNIFORMS = 2**18


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
    if graph.masks:
        masks = {
            name: np.flatnonzero(m).tolist() for name, m in sorted(graph.masks.items())
        }
        (out / "masks.json").write_text(json.dumps(masks, indent=2) + "\n")


def load_canonical(path) -> Graph:
    """Load a canonical dataset directory into a validated Graph."""
    root = Path(path)
    meta_file = root / "meta.json"
    if not meta_file.exists():
        raise DatasetParseError("missing meta.json", file=str(meta_file))
    try:
        meta = json.loads(meta_file.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetParseError(
            f"malformed header: {exc.msg}", file=str(meta_file), line=exc.lineno
        ) from exc
    for key in META_KEYS:
        if key not in meta:
            raise DatasetParseError(f"header missing key {key!r}", file=str(meta_file))
    if meta["directed"]:
        raise DatasetParseError("directed graphs unsupported", file=str(meta_file))
    n, d = int(meta["num_nodes"]), int(meta["num_features"])
    num_classes = int(meta["num_classes"]) or None

    features = _read_features(root / "features.csv", n, d)
    edges = _read_edges(root / "edges.csv")
    labels = _read_labels(root / "labels.csv", n, num_classes)
    masks = None
    masks_file = root / "masks.json"
    if masks_file.exists():
        try:
            raw = json.loads(masks_file.read_text())
        except json.JSONDecodeError as exc:
            raise DatasetParseError(
                f"malformed masks: {exc.msg}", file=str(masks_file), line=exc.lineno
            ) from exc
        masks = {}
        for name, idx in raw.items():
            m = np.zeros(n, dtype=bool)
            idx = np.asarray(idx, dtype=np.int64)
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise DatasetParseError(
                    f"mask {name!r} index out of range", file=str(masks_file)
                )
            m[idx] = True
            masks[name] = m

    if np.all(labels == -1):
        labels_arr, classes = None, None
    else:
        labels_arr, classes = labels, num_classes
    return Graph(
        num_nodes=n,
        features=features,
        edges=edges,
        labels=labels_arr,
        num_classes=classes,
        masks=masks or {},
    )


def _read_features(path: Path, n: int, d: int) -> np.ndarray:
    if not path.exists():
        raise DatasetParseError("missing features.csv", file=str(path))
    rows = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != d:
                raise DatasetParseError(
                    f"expected {d} features, found {len(parts)}",
                    file=str(path),
                    line=lineno,
                )
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise DatasetParseError(
                    f"non-numeric feature value: {exc}", file=str(path), line=lineno
                ) from exc
            if not np.all(np.isfinite(row)):
                raise DatasetParseError(
                    "non-finite feature value (NaN or inf)",
                    file=str(path), line=lineno,
                )
            rows.append(row)
    if len(rows) != n:
        raise DatasetParseError(
            f"expected {n} feature rows, found {len(rows)}", file=str(path)
        )
    return np.asarray(rows, dtype=np.float64).reshape(n, d)


def _read_edges(path: Path) -> np.ndarray:
    if not path.exists():
        raise DatasetParseError("missing edges.csv", file=str(path))
    edges = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise DatasetParseError(
                    "expected 'u,v' pair", file=str(path), line=lineno
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise DatasetParseError(
                    f"non-integer endpoint: {exc}", file=str(path), line=lineno
                ) from exc
            if u >= v:
                raise DatasetParseError(
                    f"edges must satisfy u < v, got ({u},{v})",
                    file=str(path),
                    line=lineno,
                )
            edges.append((u, v))
    if len(set(edges)) != len(edges):
        raise DatasetParseError("duplicate edges", file=str(path))
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def _read_labels(path: Path, n: int, num_classes: int | None) -> np.ndarray:
    if not path.exists():
        raise DatasetParseError("missing labels.csv", file=str(path))
    labels = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                lab = int(line)
            except ValueError as exc:
                raise DatasetParseError(
                    f"non-integer label: {exc}", file=str(path), line=lineno
                ) from exc
            if lab < -1 or (num_classes is not None and lab >= num_classes):
                raise DatasetParseError(
                    f"label {lab} out of range [-1, {num_classes})",
                    file=str(path),
                    line=lineno,
                )
            if lab >= 0 and num_classes is None:
                raise DatasetParseError(
                    "labeled node but header declares num_classes = 0",
                    file=str(path),
                    line=lineno,
                )
            labels.append(lab)
    if len(labels) != n:
        raise DatasetParseError(
            f"expected {n} labels, found {len(labels)}", file=str(path)
        )
    return np.asarray(labels, dtype=np.int64)


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
        if self.num_classes < 1:
            raise InfeasibleError("need at least one class")
        if self.total_nodes < self.num_classes:
            raise InfeasibleError(
                f"{self.total_nodes} nodes cannot cover {self.num_classes} classes"
            )
        if self.rho < 1.0:
            raise InfeasibleError("rho is max/min and must be >= 1")
        if not (0.0 <= self.p_inter <= self.p_intra <= 1.0):
            raise InfeasibleError("require 0 <= p_inter <= p_intra <= 1")
        if self.feature_dim < self.num_classes:
            raise InfeasibleError(
                "feature_dim must be >= num_classes for equidistant class means"
            )
        if self.feature_std <= 0 or self.class_mean_separation < 0:
            raise InfeasibleError("feature_std > 0 and separation >= 0 required")


def largest_remainder(targets: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative reals to integers summing to ``total``.

    Floors first, then hands out the remainder by descending fractional
    part (ties broken toward the lower index).
    """
    targets = np.asarray(targets, dtype=np.float64)
    base = np.floor(targets).astype(np.int64)
    short = total - int(base.sum())
    if short < 0:
        raise InfeasibleError("targets exceed total")
    frac = targets - base
    order = np.lexsort((np.arange(len(targets)), -frac))
    base[order[:short]] += 1
    return base


def sbm_class_sizes(config: SbmConfig) -> np.ndarray:
    """Geometric size profile from largest to smallest class."""
    c = config.num_classes
    if c == 1:
        return np.array([config.total_nodes], dtype=np.int64)
    ratio = config.rho ** (-1.0 / (c - 1))
    raw = ratio ** np.arange(c)
    sizes = largest_remainder(raw / raw.sum() * config.total_nodes, config.total_nodes)
    if sizes.min() < 1:
        raise InfeasibleError(
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

    Each class-pair block takes one uniform per cell, row-major, drawn a
    strip of rows at a time: time is O(n^2), memory O(strip + |E|). Each
    edge (lo, hi), lo < hi, is packed as the key lo * n + hi, and one sort
    of all keys leaves the edges canonical.
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
            rows, cols = sizes[ci], sizes[cj]
            step = max(1, SBM_STRIP_UNIFORMS // cols)
            for r0 in range(0, rows, step):
                hits = np.flatnonzero(rng.random((min(step, rows - r0), cols)) < p)
                iu, ju = np.divmod(hits, cols)
                iu += r0
                if ci == cj:
                    upper = iu < ju
                    iu, ju = iu[upper], ju[upper]
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
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int
    fold_id: int | None = None

    def to_masks(self, num_nodes: int) -> dict[str, np.ndarray]:
        masks = {}
        for name in ("train", "val", "test"):
            m = np.zeros(num_nodes, dtype=bool)
            m[getattr(self, name)] = True
            masks[name] = m
        return masks


def apply_split(graph: Graph, split: SplitAssignment) -> Graph:
    """The graph with the split's masks; every split node must be labeled."""
    masks = split.to_masks(graph.num_nodes)
    if graph.labels is not None:
        for name, m in masks.items():
            if np.any(graph.labels[m] < 0):
                raise GraphValidationError(
                    f"{name} split holds unlabeled nodes (label -1)"
                )
    return graph.with_masks(masks)


def _capped_largest_remainder(
    targets: np.ndarray, total: int, caps: np.ndarray
) -> np.ndarray:
    """Largest-remainder rounding with per-entry upper bounds."""
    base = np.minimum(np.floor(targets).astype(np.int64), caps)
    short = total - int(base.sum())
    frac = targets - np.floor(targets)
    order = np.lexsort((np.arange(len(targets)), -frac))
    out = base.copy()
    while short > 0:
        progressed = False
        for i in order:
            if short == 0:
                break
            if out[i] < caps[i]:
                out[i] += 1
                short -= 1
                progressed = True
        if not progressed:
            raise InfeasibleError("caps too tight to place all nodes")
    return out


def stratified_split(
    graph: Graph,
    train_frac: float,
    val_frac: float,
    min_per_class: int,
    seed: int,
    fold_id: int | None = None,
) -> SplitAssignment:
    """Class-proportional split with a minimum train count per class.

    Train counts per class follow largest-remainder rounding of the
    fractional targets, topped up to min_per_class where the proportional
    share falls short. Test counts are then allocated proportionally to
    class size (so test proportions track overall proportions within one
    node absent top-ups); val takes what remains. Unlabeled nodes (label
    -1) are excluded from all three sets.
    """
    if graph.labels is None:
        raise GraphValidationError("stratified split needs labels")
    if train_frac < 0 or val_frac < 0 or train_frac + val_frac > 1:
        raise InfeasibleError("fractions must be nonnegative and sum to <= 1")
    labels = graph.labels
    classes = np.unique(labels[labels >= 0])
    rng = np.random.default_rng(seed)

    class_nodes = {}
    for c in classes:
        nodes = np.flatnonzero(labels == c)
        if len(nodes) < max(min_per_class, 1):
            raise InfeasibleError(
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
    test_counts = _capped_largest_remainder(
        sizes * (test_total / n_labeled), test_total, avail
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
        val=np.sort(np.concatenate(val)) if val else np.array([], dtype=np.int64),
        test=np.sort(np.concatenate(test)) if test else np.array([], dtype=np.int64),
        seed=seed,
        fold_id=fold_id,
    )


def kfold_splits(
    graph: Graph,
    k: int,
    train_frac: float,
    val_frac: float,
    min_per_class: int,
    seed: int,
) -> list[SplitAssignment]:
    """k independently stratified splits with per-fold seeds seed + fold_id."""
    if k < 1:
        raise InfeasibleError("k must be >= 1")
    return [
        stratified_split(
            graph, train_frac, val_frac, min_per_class, seed + fold, fold_id=fold
        )
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
            raise InfeasibleError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.level <= 1.0:
            raise InfeasibleError("noise level must lie in [0, 1]")


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
        return Graph(
            num_nodes=n,
            features=feats,
            edges=graph.edges,
            labels=graph.labels,
            num_classes=graph.num_classes,
            masks=graph.masks,
        )

    m = graph.num_edges
    k = int(round(spec.level * m))
    n = graph.num_nodes
    total_pairs = n * (n - 1) // 2
    if total_pairs - m < k:
        raise InfeasibleError("not enough absent pairs to rewire into")
    chosen = rng.choice(m, size=k, replace=False)
    original = {(int(u), int(v)) for u, v in graph.edges}
    keep_mask = np.ones(m, dtype=bool)
    keep_mask[chosen] = False
    current = {(int(u), int(v)) for u, v in graph.edges[keep_mask]}
    added = []
    while len(added) < k:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        if pair in original or pair in current:
            continue
        current.add(pair)
        added.append(pair)
    edges = np.array(sorted(current), dtype=np.int64)
    return Graph(
        num_nodes=n,
        features=graph.features,
        edges=edges,
        labels=graph.labels,
        num_classes=graph.num_classes,
        masks=graph.masks,
    )
