"""Neutral reference graph construction and the pooled neutral logit vector.

The neutral graph matches the training data's average node count, edge
density, and feature mean/covariance. Running the trained model on it and
mean-pooling the per-node logits gives a single per-class reference vector
that estimates the model's class-agnostic output bias.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, build, check_seed, read_json
from .datasets import load_canonical, save_canonical
from .graph import DatasetStats, Graph, bernoulli_pairs
from .models import ModelParams, forward_with_operator, prepare_operator

CONSTRUCTION_VARIANTS = ("mean_cov", "random", "class_balanced")
# "stats" keys of older neutral_meta.json files: the covariance mode is the
# config's alone, and the source node count always equalled n_bar
RETIRED_STATS_KEYS = ("covariance_mode", "source_node_count")
# the full-covariance sampler factors Sigma + eps*I, eps = this * trace / d
REGULARIZATION_EPS_SCALE = 1e-6
# former NeutralConfig fields, each with the only value a run ever gave it
RETIRED_CONFIG_KEYS = {"node_count_override": None,
                       "regularization_eps_scale": REGULARIZATION_EPS_SCALE}


@dataclass(frozen=True)
class NeutralConfig:
    covariance_mode: str = "full"  # "full" | "diagonal"
    construction_variant: str = "mean_cov"
    refresh_every: int | str = "never"  # epochs in [1, 10] or "never"
    seed: int = 0

    def __post_init__(self):
        if self.covariance_mode not in ("full", "diagonal"):
            raise ConfigError(
                f"unknown covariance mode {self.covariance_mode!r}"
            )
        if self.construction_variant not in CONSTRUCTION_VARIANTS:
            raise ConfigError(
                f"unknown construction variant {self.construction_variant!r}"
            )
        if self.refresh_every != "never" and not (
            isinstance(self.refresh_every, int) and 1 <= self.refresh_every <= 10
        ):
            raise ConfigError("refresh_every must be 'never' or an int in [1, 10]")
        check_seed(self)


@dataclass(frozen=True)
class NeutralGraph:
    graph: Graph
    stats_used: DatasetStats
    config: NeutralConfig
    # architecture -> the graph's operator, prepared by its first probe
    operators: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def regularized_covariance_factor(sigma: np.ndarray) -> np.ndarray:
    """Factor A with A A^T = Sigma' where Sigma' = Sigma + eps*I, eigenvalues
    clipped at zero.

    Real feature covariances are often rank-deficient; the symmetric
    eigendecomposition with clipping keeps the factor well defined.
    """
    d = sigma.shape[0]
    eps = REGULARIZATION_EPS_SCALE * float(np.trace(sigma)) / d
    sigma_reg = sigma + eps * np.eye(d)
    eigvals, eigvecs = np.linalg.eigh(sigma_reg)
    eigvals = np.clip(eigvals, 0.0, None)
    return eigvecs * np.sqrt(eigvals)


def _matched_normals(z: np.ndarray, mode: str) -> np.ndarray:
    """Moment matching (Boyle, Broadie & Glasserman 1997): standard normal
    rows ``z`` shifted to sample mean exactly 0 and, when there are more
    rows than columns, whitened by their own population covariance to
    exactly I (full mode, symmetric whitening) or to unit variance per
    column (diagonal mode)."""
    count, d = z.shape
    if count == 0:
        return z
    z = z - z.mean(axis=0)
    if count <= d:
        return z
    if mode == "diagonal":
        return z / np.sqrt(np.mean(z * z, axis=0))
    eigvals, eigvecs = np.linalg.eigh(z.T @ z / count)
    return z @ ((eigvecs / np.sqrt(eigvals)) @ eigvecs.T)


def sample_mvn(
    mu: np.ndarray,
    sigma: np.ndarray,
    count: int,
    mode: str = "full",
    seed: int = 0,
) -> np.ndarray:
    """Draw ``count`` rows from N(mu, Sigma), deterministically per seed.

    ``sigma`` is a (d, d) matrix. full mode factors Sigma + eps*I via
    eigendecomposition (negative eigenvalues clipped); diagonal mode treats
    dimensions independently with variance diag(Sigma).

    The draws are moment-matched: their sample mean is mu and, when count >
    d, their population covariance the target (Sigma + eps*I, or diag(Sigma)
    in diagonal mode), up to rounding.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    d = mu.shape[0]
    if sigma.shape != (d, d):
        raise DataError("sigma does not match mu")
    rng = np.random.default_rng(seed)
    z = _matched_normals(rng.standard_normal((count, d)), mode)
    if mode == "diagonal":
        return mu + z * np.sqrt(np.clip(np.diag(sigma), 0.0, None))
    if mode != "full":
        raise ConfigError(f"unknown sampling mode {mode!r}")
    asymmetry = float(np.max(np.abs(sigma - sigma.T))) if d else 0.0
    if asymmetry > 1e-8:
        raise DataError(
            f"sigma asymmetry {asymmetry:.3g} exceeds 1e-8"
        )
    factor = regularized_covariance_factor(sigma)
    return mu + z @ factor.T


def train_rows(graph: Graph, rows: np.ndarray) -> Graph:
    """The nodes ``rows`` (a split's train indices) of ``graph`` as an
    edgeless graph.

    This is the only source the random and class_balanced variants may copy
    rows from: the method is post hoc, so neither which rows a neutral graph
    holds nor what they contain may depend on a held-out label.
    """
    if len(rows) == 0:
        raise DataError("the train split holds no nodes")
    return Graph(
        num_nodes=len(rows),
        features=graph.features[rows],
        edges=[],
        labels=None if graph.labels is None else graph.labels[rows],
        num_classes=graph.num_classes,
    )


def construct_neutral(
    stats: DatasetStats,
    config: NeutralConfig,
    labeled_source: Graph | None = None,
) -> NeutralGraph:
    """Build the neutral graph: floor(n_bar) nodes, each pair wired with
    probability d_bar, features per the construction variant.

    mean_cov samples features from N(mu_node, Sigma_node); random copies
    uniformly chosen rows from the source graph; class_balanced draws a
    class uniformly, then a uniform row within that class.
    """
    n = int(np.floor(stats.n_bar))
    if n < 1:
        raise ConfigError("neutral graph needs at least one node")
    edges = bernoulli_pairs(
        np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0]),
        n, stats.d_bar)
    rng = np.random.default_rng(config.seed)
    # the feature and row draws start where a dense sampler spending one
    # uniform per pair would have left the stream, so they depend on the
    # seed and n only, never on the wiring
    rng.bit_generator.advance(n * (n - 1) // 2)

    variant = config.construction_variant
    if variant == "mean_cov":
        features = sample_mvn(
            stats.mu_node, stats.sigma_node, n,
            mode=config.covariance_mode,
            seed=int(rng.integers(2**32)),
        )
    elif variant == "random":
        if labeled_source is None:
            raise DataError("random variant needs a source graph")
        rows = rng.integers(0, labeled_source.num_nodes, size=n)
        features = labeled_source.features[rows].copy()
    else:  # class_balanced
        if labeled_source is None or labeled_source.labels is None:
            raise DataError(
                "class_balanced variant needs a labeled source graph"
            )
        labels = labeled_source.labels
        class_rows = [
            np.flatnonzero(labels == c) for c in range(labeled_source.num_classes)
        ]
        class_rows = [rows for rows in class_rows if rows.size > 0]
        picks = rng.integers(0, len(class_rows), size=n)
        # one bounded draw per node, in node order, as a loop of scalar
        # draws would take them
        sizes = np.array([rows.size for rows in class_rows])
        firsts = np.cumsum(sizes) - sizes
        rows = np.concatenate(class_rows)[firsts[picks] + rng.integers(0, sizes[picks])]
        features = labeled_source.features[rows]
    graph = Graph(num_nodes=n, features=features, edges=edges)
    return NeutralGraph(graph=graph, stats_used=stats, config=config)


def neutral_fidelity(neutral: NeutralGraph) -> dict:
    """How closely the neutral graph matches the statistics it was built
    from: target and realized edge density, the largest per-dimension gap
    between its feature mean and mu_node, and the relative Frobenius error
    of its population feature covariance against sigma_node; in the
    config's diagonal covariance_mode, of its per-dimension variances
    against diag(sigma_node), the target that mode samples (None when the
    target is zero)."""
    g, stats = neutral.graph, neutral.stats_used
    pairs = g.num_nodes * (g.num_nodes - 1) // 2
    mean = g.features.mean(axis=0)
    centered = g.features - mean
    if neutral.config.covariance_mode == "diagonal":
        target = np.diag(stats.sigma_node)
        cov = np.mean(centered * centered, axis=0)
    else:
        target = stats.sigma_node
        cov = centered.T @ centered / g.num_nodes
    target_norm = float(np.linalg.norm(target))
    return {
        "variant": neutral.config.construction_variant,
        "target_density": float(stats.d_bar),
        "realized_density": g.num_edges / pairs if pairs else None,
        "max_abs_mean_error": float(np.abs(mean - stats.mu_node).max()),
        "cov_rel_frobenius_error": (
            float(np.linalg.norm(cov - target)) / target_norm
            if target_norm else None
        ),
    }


def neutral_logit_vector(params: ModelParams, neutral: NeutralGraph) -> np.ndarray:
    """Eval-mode forward pass on the neutral graph, mean-pooled to one
    per-class vector. A model whose input_dim differs from the neutral
    feature width raises DataError. Later probes of ``neutral`` by the same
    architecture reuse its operator and run the forward only."""
    arch = params.config.architecture
    if arch not in neutral.operators:
        neutral.operators[arch] = prepare_operator(neutral.graph, params.config)
    return forward_with_operator(params, neutral.operators[arch])[0].mean(axis=0)


# ---------------------------------------------------------------------------
# serialization


def save_neutral(neutral: NeutralGraph, path) -> None:
    out = Path(path)
    save_canonical(neutral.graph, out)
    stats = neutral.stats_used
    meta = {
        "stats": {**asdict(stats), "mu_node": stats.mu_node.tolist(),
                  "sigma_node": stats.sigma_node.tolist()},
        "config": asdict(neutral.config),
        "neutral_logit_pooling": "mean",
    }
    (out / "neutral_meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def load_neutral(path) -> NeutralGraph:
    """Read a directory written by :func:`save_neutral`; a fault in its
    neutral_meta.json raises DataError naming the file. The retired keys and
    the top-level seed of older files are ignored."""
    root = Path(path)
    graph = load_canonical(root)
    meta_file = root / "neutral_meta.json"
    meta = read_json(meta_file, "neutral metadata", DataError)
    stats, config = meta.get("stats"), meta.get("config")
    if isinstance(stats, dict):
        stats = {k: v for k, v in stats.items() if k not in RETIRED_STATS_KEYS}
    if isinstance(config, dict):
        config = {k: v for k, v in config.items() if k not in RETIRED_CONFIG_KEYS}
    stats = build("stats", DatasetStats, stats, DataError, meta_file)
    config = build("config", NeutralConfig, config, DataError, meta_file)
    return NeutralGraph(graph=graph, stats_used=stats, config=config)
