"""Neutral reference graph construction and the pooled neutral logit vector.

The neutral graph matches the training data's average node count, edge
density, and feature mean/covariance. Running the trained model on it and
mean-pooling the per-node logits gives a single per-class reference vector
that estimates the model's class-agnostic output bias.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyScopeError,
    GraphValidationError,
    InfeasibleError,
    ShapeError,
)
from .graph import DatasetStats, Graph
from .models import ModelParams, predict_logits

CONSTRUCTION_VARIANTS = ("mean_cov", "random", "class_balanced")


@dataclass(frozen=True)
class NeutralConfig:
    node_count_override: int | None = None
    covariance_mode: str = "full"  # "full" | "diagonal"
    regularization_eps_scale: float = 1e-6  # eps = scale * trace(Sigma) / d
    construction_variant: str = "mean_cov"
    refresh_every: int | str = "never"  # epochs in [1, 10] or "never"
    seed: int = 0

    def __post_init__(self):
        if self.node_count_override is not None and self.node_count_override < 1:
            raise InfeasibleError("neutral node count must be >= 1")
        if self.covariance_mode not in ("full", "diagonal"):
            raise InfeasibleError(
                f"unknown covariance mode {self.covariance_mode!r}"
            )
        if self.regularization_eps_scale <= 0:
            raise InfeasibleError("regularization_eps_scale must be positive")
        if self.construction_variant not in CONSTRUCTION_VARIANTS:
            raise InfeasibleError(
                f"unknown construction variant {self.construction_variant!r}"
            )
        if self.refresh_every != "never" and not (
            isinstance(self.refresh_every, int) and 1 <= self.refresh_every <= 10
        ):
            raise InfeasibleError("refresh_every must be 'never' or an int in [1, 10]")


@dataclass(frozen=True)
class NeutralGraph:
    graph: Graph
    stats_used: DatasetStats
    config: NeutralConfig
    seed: int


def regularized_covariance_factor(
    sigma: np.ndarray, eps_scale: float
) -> np.ndarray:
    """Factor A with A A^T = Sigma' where Sigma' = Sigma + eps*I, eigenvalues
    clipped at zero.

    Real feature covariances are often rank-deficient; the symmetric
    eigendecomposition with clipping keeps the factor well defined.
    """
    d = sigma.shape[0]
    eps = eps_scale * float(np.trace(sigma)) / d
    sigma_reg = sigma + eps * np.eye(d)
    eigvals, eigvecs = np.linalg.eigh(sigma_reg)
    eigvals = np.clip(eigvals, 0.0, None)
    return eigvecs * np.sqrt(eigvals)


def sample_mvn(
    mu: np.ndarray,
    sigma: np.ndarray,
    count: int,
    mode: str = "full",
    eps_scale: float = 1e-6,
    seed: int = 0,
) -> np.ndarray:
    """Draw ``count`` rows from N(mu, Sigma), deterministically per seed.

    full mode factors Sigma + eps*I via eigendecomposition (negative
    eigenvalues clipped); diagonal mode treats dimensions independently
    with variance diag(Sigma). ``sigma`` may be the (d,) variance vector
    in diagonal mode.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    d = mu.shape[0]
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, d))
    if mode == "diagonal":
        var = sigma if sigma.ndim == 1 else np.diag(sigma)
        if var.shape != (d,):
            raise ShapeError("variance vector does not match mu")
        return mu + z * np.sqrt(np.clip(var, 0.0, None))
    if mode != "full":
        raise InfeasibleError(f"unknown sampling mode {mode!r}")
    if sigma.shape != (d, d):
        raise ShapeError("sigma does not match mu")
    asymmetry = float(np.max(np.abs(sigma - sigma.T))) if d else 0.0
    if asymmetry > 1e-8:
        raise GraphValidationError(
            f"sigma asymmetry {asymmetry:.3g} exceeds 1e-8"
        )
    factor = regularized_covariance_factor(sigma, eps_scale)
    return mu + z @ factor.T


def train_rows(graph: Graph, train_mask: np.ndarray) -> Graph:
    """The train-mask nodes of ``graph`` as an edgeless graph.

    This is the only source the random and class_balanced variants may copy
    rows from: the method is post hoc, so neither which rows a neutral graph
    holds nor what they contain may depend on a held-out label.
    """
    idx = np.flatnonzero(train_mask)
    if idx.size == 0:
        raise EmptyScopeError("the train mask selects no nodes")
    return Graph(
        num_nodes=idx.size,
        features=graph.features[idx],
        edges=[],
        labels=None if graph.labels is None else graph.labels[idx],
        num_classes=graph.num_classes,
    )


def _bernoulli_pairs(n: int, p: float, seed) -> np.ndarray:
    """Wire each unordered pair of ``n`` nodes independently with
    probability ``p``, in memory proportional to the edges drawn.

    Sampling goes by edge count, not by pair, in the style of Batagelj &
    Brandes (Phys. Rev. E 2005): a Binomial(n^2, p) number of distinct
    cells of the n x n grid, of which the cells above the diagonal are
    the edges. Each pair i < j is one
    such cell, so it is wired with probability p, independently of the
    rest. Edges come back canonical: i < j, sorted, no duplicates.
    """
    rng = np.random.default_rng(seed)
    cells = n * n
    picked = rng.choice(cells, size=rng.binomial(cells, p), replace=False,
                        shuffle=False)
    i, j = np.divmod(np.sort(picked), n)
    upper = i < j
    return np.stack([i[upper], j[upper]], axis=1)


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
    n = config.node_count_override or int(np.floor(stats.n_bar))
    if n < 1:
        raise InfeasibleError("neutral graph needs at least one node")
    edges = _bernoulli_pairs(
        n, stats.d_bar, np.random.SeedSequence(config.seed).spawn(1)[0]
    )
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
            eps_scale=config.regularization_eps_scale,
            seed=int(rng.integers(2**32)),
        )
    elif variant == "random":
        if labeled_source is None:
            raise GraphValidationError("random variant needs a source graph")
        rows = rng.integers(0, labeled_source.num_nodes, size=n)
        features = labeled_source.features[rows].copy()
    else:  # class_balanced
        if labeled_source is None or labeled_source.labels is None:
            raise GraphValidationError(
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
    return NeutralGraph(graph=graph, stats_used=stats, config=config, seed=config.seed)


def neutral_fidelity(neutral: NeutralGraph) -> dict:
    """How closely the neutral graph matches the statistics it was built
    from: target and realized edge density, and the largest per-dimension
    gap between its feature mean and mu_node."""
    g = neutral.graph
    pairs = g.num_nodes * (g.num_nodes - 1) // 2
    mean_error = np.abs(g.features.mean(axis=0) - neutral.stats_used.mu_node)
    return {
        "variant": neutral.config.construction_variant,
        "target_density": float(neutral.stats_used.d_bar),
        "realized_density": g.num_edges / pairs if pairs else None,
        "max_abs_mean_error": float(mean_error.max()),
    }


def neutral_logit_vector(params: ModelParams, neutral: NeutralGraph) -> np.ndarray:
    """Eval-mode forward pass on the neutral graph, mean-pooled to one
    per-class vector."""
    if neutral.graph.num_features != params.config.input_dim:
        raise ShapeError(
            f"neutral features have width {neutral.graph.num_features}, "
            f"model expects {params.config.input_dim}"
        )
    logits = predict_logits(params, neutral.graph)
    return logits.mean(axis=0)


# ---------------------------------------------------------------------------
# serialization


def save_neutral(neutral: NeutralGraph, path) -> None:
    from .datasets import save_canonical

    out = Path(path)
    save_canonical(neutral.graph, out)
    stats = neutral.stats_used
    meta = {
        "stats": {
            "n_bar": stats.n_bar,
            "d_bar": stats.d_bar,
            "mu_node": stats.mu_node.tolist(),
            "sigma_node": stats.sigma_node.tolist(),
            "source_node_count": stats.source_node_count,
            "covariance_mode": stats.covariance_mode,
        },
        "config": asdict(neutral.config),
        "seed": neutral.seed,
        "neutral_logit_pooling": "mean",
    }
    (out / "neutral_meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def load_neutral(path) -> NeutralGraph:
    from .datasets import load_canonical

    root = Path(path)
    graph = load_canonical(root)
    meta = json.loads((root / "neutral_meta.json").read_text())
    s = meta["stats"]
    stats = DatasetStats(
        n_bar=s["n_bar"],
        d_bar=s["d_bar"],
        mu_node=np.asarray(s["mu_node"]),
        sigma_node=np.asarray(s["sigma_node"]),
        source_node_count=s["source_node_count"],
        covariance_mode=s.get("covariance_mode", "full"),
    )
    config = NeutralConfig(**meta["config"])
    return NeutralGraph(graph=graph, stats_used=stats, config=config,
                        seed=meta["seed"])
