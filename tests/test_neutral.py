import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from neubm.datasets import SbmConfig, generate_sbm
from neubm.errors import ConfigError, DataError
from neubm.graph import DatasetStats, Graph, bernoulli_pairs, compute_dataset_stats
import neubm.neutral as neutral_module
from neubm.models import ModelConfig, init_params, predict_logits, prepare_operator
from neubm.neutral import (
    NeutralConfig,
    construct_neutral,
    load_neutral,
    neutral_fidelity,
    neutral_logit_vector,
    regularized_covariance_factor,
    sample_mvn,
    save_neutral,
)


def stats_for(n_bar=10.0, d_bar=0.2, d=3, mu=None, sigma=None):
    mu = np.zeros(d) if mu is None else np.asarray(mu, float)
    sigma = np.eye(d) if sigma is None else np.asarray(sigma, float)
    return DatasetStats(n_bar=n_bar, d_bar=d_bar, mu_node=mu, sigma_node=sigma)


class TestSampleMvn:
    def test_zero_covariance_returns_mean(self):
        mu = np.array([1.0, -2.0, 0.5])
        out = sample_mvn(mu, np.zeros((3, 3)), count=10, seed=0)
        np.testing.assert_array_equal(out, np.tile(mu, (10, 1)))

    def test_marginal_std_monte_carlo(self):
        # 1-D, variance 4: sample std of 100k draws lands in [1.97, 2.03]
        out = sample_mvn(np.zeros(1), np.array([[4.0]]), count=100_000, seed=1)
        assert 1.97 <= out.std() <= 2.03

    def test_full_vs_diagonal_moments(self):
        sigma = np.diag([1.0, 4.0, 0.25])
        full = sample_mvn(np.zeros(3), sigma, count=50_000, mode="full", seed=2)
        diag = sample_mvn(np.zeros(3), sigma, count=50_000, mode="diagonal", seed=2)
        np.testing.assert_allclose(full.std(axis=0), diag.std(axis=0), atol=0.05)
        np.testing.assert_allclose(full.std(axis=0), [1.0, 2.0, 0.5], atol=0.03)

    def test_correlated_covariance_recovered(self):
        sigma = np.array([[2.0, 1.2], [1.2, 1.0]])
        out = sample_mvn(np.zeros(2), sigma, count=100_000, seed=3)
        emp = out.T @ out / out.shape[0]
        np.testing.assert_allclose(emp, sigma, atol=0.05)

    def test_asymmetric_sigma_rejected(self):
        sigma = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(DataError):
            sample_mvn(np.zeros(2), sigma, count=1)

    def test_deterministic(self):
        sigma = np.eye(2)
        a = sample_mvn(np.zeros(2), sigma, count=5, seed=9)
        b = sample_mvn(np.zeros(2), sigma, count=5, seed=9)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("count", [5, 6, 40, 2000])
    def test_full_mode_matches_moments_exactly(self, count):
        # the sample mean is mu and the population covariance the regularized
        # target Sigma + eps*I, whenever there are more rows than columns
        rng = np.random.default_rng(count)
        base = rng.normal(size=(4, 4))
        sigma = base @ base.T + np.diag([0.0, 0.5, 1.0, 2.0])
        mu = rng.normal(size=4) * 3
        for seed in range(5):
            out = sample_mvn(mu, sigma, count=count, seed=seed)
            factor = regularized_covariance_factor(sigma)
            centered = out - out.mean(axis=0)
            np.testing.assert_allclose(out.mean(axis=0), mu, rtol=0, atol=1e-10)
            np.testing.assert_allclose(centered.T @ centered / count,
                                       factor @ factor.T, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("count", [5, 300])
    def test_diagonal_mode_matches_moments_exactly(self, count):
        var = np.array([0.25, 1.0, 4.0, 9.0])
        mu = np.array([1.0, -2.0, 0.0, 5.0])
        out = sample_mvn(mu, np.diag(var), count=count, mode="diagonal", seed=count)
        np.testing.assert_allclose(out.mean(axis=0), mu, rtol=0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=0), var, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_variance_vector_rejected(self, mode):
        # sigma is always the (d, d) matrix; diagonal mode reads its diagonal
        with pytest.raises(DataError, match="sigma does not match mu"):
            sample_mvn(np.zeros(3), np.ones(3), count=5, mode=mode)

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_few_rows_match_the_mean_only(self, mode, count):
        # count <= d leaves too few rows to whiten: only the mean is matched
        mu = np.array([1.0, -2.0, 0.5, 3.0])
        out = sample_mvn(mu, np.eye(4), count=count, mode=mode, seed=3)
        assert out.shape == (count, 4) and np.all(np.isfinite(out))
        np.testing.assert_allclose(out.mean(axis=0), mu, rtol=0, atol=1e-10)
        if count > 1:
            assert np.all(out.std(axis=0) > 0)

    def test_no_rows(self):
        assert sample_mvn(np.zeros(3), np.eye(3), count=0).shape == (0, 3)


class TestRegularizedFactor:
    def test_reconstruction_psd(self):
        # factor of an indefinite "covariance": A A^T is PSD and close to Sigma
        rng = np.random.default_rng(4)
        base = rng.normal(size=(5, 5))
        sigma = (base + base.T) / 2  # symmetric, generally indefinite
        factor = regularized_covariance_factor(sigma)
        recon = factor @ factor.T
        # PSD check: Cholesky succeeds with a tiny jitter
        np.linalg.cholesky(recon + 1e-12 * np.eye(5))
        eigvals = np.linalg.eigvalsh(sigma)
        eps = 1e-6 * np.trace(sigma) / 5
        clipped_mass = float(np.abs(np.clip(eigvals + eps, None, 0.0)).max())
        assert np.max(np.abs(recon - sigma)) <= abs(eps) + clipped_mass + 1e-9

    def test_rank_deficient_ok(self):
        v = np.array([1.0, 2.0, 3.0])
        sigma = np.outer(v, v)  # rank one
        factor = regularized_covariance_factor(sigma)
        recon = factor @ factor.T
        np.testing.assert_allclose(recon, sigma, atol=1e-4)
        np.linalg.cholesky(recon + 1e-10 * np.eye(3))


class TestConstructNeutral:
    def test_node_count_floor(self):
        neutral = construct_neutral(stats_for(n_bar=10.9), NeutralConfig(seed=0))
        assert neutral.graph.num_nodes == 10

    def test_zero_density_edgeless(self):
        neutral = construct_neutral(stats_for(d_bar=0.0), NeutralConfig(seed=1))
        assert neutral.graph.num_edges == 0

    def test_mean_density_binomial_band(self):
        # mean realized density over 200 seeds within 3 sigma of the target
        stats = stats_for(n_bar=100.0, d_bar=0.1)
        densities = []
        pairs = 100 * 99 / 2
        for seed in range(200):
            g = construct_neutral(stats, NeutralConfig(seed=seed)).graph
            densities.append(g.num_edges / pairs)
        sigma_mean = np.sqrt(0.1 * 0.9 / pairs) / np.sqrt(200)
        assert abs(np.mean(densities) - 0.1) < 3 * sigma_mean
        assert 0.094 <= np.mean(densities) <= 0.106

    def test_feature_means_track_mu(self):
        # per-dimension sample mean over 50 constructions within 3 sigma of mu
        mu = np.array([2.0, -1.0, 0.5])
        sigma = np.diag([1.0, 2.0, 0.5])
        stats = stats_for(n_bar=40.0, mu=mu, sigma=sigma)
        sums, count = np.zeros(3), 0
        for seed in range(50):
            g = construct_neutral(stats, NeutralConfig(seed=seed)).graph
            sums += g.features.sum(axis=0)
            count += g.num_nodes
        band = 3 * np.sqrt(np.diag(sigma) / count)
        assert np.all(np.abs(sums / count - mu) < band)

    def test_bit_reproducible_across_variant_switches(self):
        rng = np.random.default_rng(5)
        source = Graph(
            num_nodes=20, features=rng.normal(size=(20, 3)), edges=[(0, 1)],
            labels=rng.integers(0, 3, 20), num_classes=3,
        )
        stats = compute_dataset_stats(source)
        a = construct_neutral(stats, NeutralConfig(seed=7))
        construct_neutral(
            stats, NeutralConfig(construction_variant="random", seed=7),
            labeled_source=source,
        )
        b = construct_neutral(stats, NeutralConfig(seed=7))
        np.testing.assert_array_equal(a.graph.features, b.graph.features)
        np.testing.assert_array_equal(a.graph.edges, b.graph.edges)

    def test_random_variant_copies_source_rows(self):
        rng = np.random.default_rng(6)
        source = Graph(num_nodes=15, features=rng.normal(size=(15, 3)),
                       edges=[(0, 1)])
        stats = stats_for(n_bar=8.0)
        neutral = construct_neutral(
            stats, NeutralConfig(construction_variant="random", seed=2),
            labeled_source=source,
        )
        source_rows = {tuple(r) for r in source.features.tolist()}
        for row in neutral.graph.features.tolist():
            assert tuple(row) in source_rows

    def test_class_balanced_requires_labels(self):
        source = Graph(num_nodes=5, features=np.zeros((5, 2)), edges=[])
        with pytest.raises(DataError):
            construct_neutral(
                stats_for(d=2),
                NeutralConfig(construction_variant="class_balanced", seed=0),
                labeled_source=source,
            )

    def test_class_balanced_uniform_over_classes(self):
        # class draws are uniform even when the source is 9:1 imbalanced
        rng = np.random.default_rng(8)
        labels = np.array([0] * 90 + [1] * 10)
        feats = np.zeros((100, 2))
        feats[90:, 0] = 1.0  # class-1 rows tagged
        source = Graph(num_nodes=100, features=feats, edges=[(0, 1)],
                       labels=labels, num_classes=2)
        stats = stats_for(n_bar=400.0, d_bar=0.0, d=2)
        neutral = construct_neutral(
            stats, NeutralConfig(construction_variant="class_balanced", seed=3),
            labeled_source=source,
        )
        share = neutral.graph.features[:, 0].mean()
        assert abs(share - 0.5) < 3 * 0.5 / np.sqrt(400)

    def test_infeasible_zero_nodes(self):
        with pytest.raises(ConfigError):
            construct_neutral(stats_for(n_bar=0.4), NeutralConfig(seed=0))


def reference_neutral_features(stats, config, labeled_source=None):
    """Features of the dense pair sampler, which spent one uniform per
    unordered pair from the main stream before drawing them."""
    n = int(np.floor(stats.n_bar))
    rng = np.random.default_rng(config.seed)
    rng.random(n * (n - 1) // 2)
    variant = config.construction_variant
    if variant == "mean_cov":
        return sample_mvn(stats.mu_node, stats.sigma_node, n,
                          mode=config.covariance_mode,
                          seed=int(rng.integers(2**32)))
    if variant == "random":
        rows = rng.integers(0, labeled_source.num_nodes, size=n)
        return labeled_source.features[rows]
    labels = labeled_source.labels
    class_rows = [np.flatnonzero(labels == c)
                  for c in range(labeled_source.num_classes)]
    class_rows = [rows for rows in class_rows if rows.size > 0]
    picks = rng.integers(0, len(class_rows), size=n)
    return np.stack([
        labeled_source.features[class_rows[c][rng.integers(0, len(class_rows[c]))]]
        for c in picks
    ])


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("sizes", [[1], [1, 1, 1], [3, 1, 40], [17, 250, 2, 9, 1]])
def test_bounded_draw_per_node_matches_scalar_loop(seed, sizes):
    # class_balanced draws each node's row with one array-bounded
    # rng.integers(0, sizes[picks]) call; it must take the same values as a
    # loop of scalar draws, and leave the stream where the loop leaves it
    sizes = np.array(sizes)
    loop_rng, vec_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    picks = loop_rng.integers(0, sizes.size, size=300)
    np.testing.assert_array_equal(vec_rng.integers(0, sizes.size, size=300), picks)
    want = np.array([loop_rng.integers(0, sizes[c]) for c in picks])
    got = vec_rng.integers(0, sizes[picks])
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(vec_rng.integers(0, 7, size=5),
                                  loop_rng.integers(0, 7, size=5))
    np.testing.assert_array_equal(vec_rng.random(3), loop_rng.random(3))


class TestEdgeSampler:
    @pytest.mark.parametrize("variant", ["mean_cov", "random", "class_balanced"])
    @pytest.mark.parametrize("n_bar", [1.0, 2.0, 37.5, 300.0])
    def test_features_match_dense_sampler(self, variant, n_bar):
        rng = np.random.default_rng(12)
        source = Graph(num_nodes=30, features=rng.normal(size=(30, 3)),
                       edges=[(0, 1), (1, 2)], labels=rng.integers(0, 3, 30),
                       num_classes=3)
        stats = compute_dataset_stats(source)
        stats = DatasetStats(n_bar=n_bar, d_bar=0.1, mu_node=stats.mu_node,
                             sigma_node=stats.sigma_node)
        for seed in (0, 5, 2024):
            cfg = NeutralConfig(construction_variant=variant, seed=seed)
            got = construct_neutral(stats, cfg, labeled_source=source)
            np.testing.assert_array_equal(
                got.graph.features, reference_neutral_features(stats, cfg, source)
            )

    @pytest.mark.parametrize("n,p", [(1, 0.5), (2, 0.5), (9, 0.3), (200, 0.05)])
    def test_edges_canonical(self, n, p):
        for seed in range(5):
            edges = bernoulli_pairs(np.random.default_rng(seed), n, p)
            assert edges.dtype == np.int64 and edges.shape[1] == 2
            assert np.all(edges[:, 0] < edges[:, 1])
            assert np.all(edges >= 0) and np.all(edges < n)
            keys = edges[:, 0] * n + edges[:, 1]
            assert np.all(np.diff(keys) > 0)  # sorted, no duplicates

    def test_density_extremes(self):
        assert construct_neutral(stats_for(n_bar=30.0, d_bar=0.0),
                                 NeutralConfig(seed=3)).graph.num_edges == 0
        complete = construct_neutral(stats_for(n_bar=30.0, d_bar=1.0),
                                     NeutralConfig(seed=3)).graph
        iu, ju = np.triu_indices(30, k=1)
        np.testing.assert_array_equal(complete.edges, np.stack([iu, ju], axis=1))

    def test_single_node(self):
        g = construct_neutral(stats_for(n_bar=1.0, d_bar=1.0),
                              NeutralConfig(seed=4)).graph
        assert g.num_nodes == 1 and g.num_edges == 0

    def test_pair_inclusion_uniform_chi_square(self):
        # each of the 45 pairs at n = 10 is wired in Binomial(2000, p) of
        # 2000 seeded constructions; the standardized squares sum to chi2(45)
        p, runs = 0.3, 2000
        stats = stats_for(n_bar=10.0, d_bar=p)
        counts = np.zeros((10, 10))
        for seed in range(runs):
            e = construct_neutral(stats, NeutralConfig(seed=seed)).graph.edges
            counts[e[:, 0], e[:, 1]] += 1
        observed = counts[np.triu_indices(10, k=1)]
        expected = runs * p
        chi2 = float(((observed - expected) ** 2 / (expected * (1 - p))).sum())
        assert sps.chi2.sf(chi2, df=observed.size) > 1e-3, chi2

    def test_memory_linear_in_edges_at_50k_nodes(self):
        # about 500k edges; the dense sampler needed about 20 GB here
        stats = stats_for(n_bar=50_000.0, d_bar=4e-4, d=16)
        tracemalloc.start()
        try:
            g = construct_neutral(stats, NeutralConfig(seed=0)).graph
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.num_nodes == 50_000
        pairs = 50_000 * 49_999 / 2
        assert abs(g.num_edges / pairs - 4e-4) < 5 * np.sqrt(4e-4 / pairs)
        assert peak < 96 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestNeutralFidelity:
    def test_reports_density_and_mean_error(self):
        stats = stats_for(n_bar=4.0, d_bar=0.5, d=2, mu=[1.0, 2.0],
                          sigma=np.zeros((2, 2)))
        neutral = construct_neutral(stats, NeutralConfig(seed=0))
        fid = neutral_fidelity(neutral)
        assert fid["variant"] == "mean_cov"
        assert fid["target_density"] == 0.5
        assert fid["realized_density"] == neutral.graph.num_edges / 6
        # zero covariance: every row is mu up to the eps regularization
        assert fid["max_abs_mean_error"] < 1e-6

    def test_random_rows_mean_error(self):
        source = Graph(num_nodes=2, features=[[3.0, 0.0], [3.0, 0.0]], edges=[])
        stats = stats_for(n_bar=5.0, d=2, mu=[1.0, -1.0])
        neutral = construct_neutral(
            stats, NeutralConfig(construction_variant="random", seed=1),
            labeled_source=source,
        )
        assert neutral_fidelity(neutral)["max_abs_mean_error"] == 2.0

    def test_single_node_has_no_density(self):
        neutral = construct_neutral(stats_for(n_bar=1.0), NeutralConfig(seed=0))
        assert neutral_fidelity(neutral)["realized_density"] is None

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_covariance_error(self, mode):
        # mean_cov matches the covariance up to the eps regularization (full
        # mode) or the per-dimension variances exactly (diagonal mode, where
        # the target is diag(Sigma)); rows copied from a source carry the
        # source's covariance instead
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        stats = stats_for(n_bar=50.0, d=2, sigma=sigma)
        cfg = NeutralConfig(covariance_mode=mode, seed=2)
        fid = neutral_fidelity(construct_neutral(stats, cfg))
        assert fid["cov_rel_frobenius_error"] < (1e-5 if mode == "full" else 1e-12)
        source = Graph(num_nodes=2, features=[[1.0, 0.0], [-1.0, 0.0]], edges=[])
        copied = construct_neutral(
            stats, NeutralConfig(construction_variant="random", seed=2),
            labeled_source=source,
        )
        assert neutral_fidelity(copied)["cov_rel_frobenius_error"] > 0.1

    def test_zero_target_covariance_has_no_relative_error(self):
        stats = stats_for(n_bar=4.0, d=2, sigma=np.zeros((2, 2)))
        fid = neutral_fidelity(construct_neutral(stats, NeutralConfig(seed=0)))
        assert fid["cov_rel_frobenius_error"] is None


# the criterion-5 block model (tests/test_acceptance.py)
CRITERION_5_SBM = SbmConfig(
    num_classes=5, total_nodes=2000, rho=10, p_intra=0.02, p_inter=0.006,
    feature_dim=16, class_mean_separation=0.8, feature_std=1.0, seed=2024,
)


def former_diagonal_features(mu, sigma, n, seed):
    """mean_cov features in diagonal mode as the sampler drew them when it
    also took a (d,) variance vector: the harness passed the full Sigma
    and the sampler read its diagonal."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(n * (n - 1) // 2)
    z = np.random.default_rng(int(rng.integers(2**32))).standard_normal(
        (n, mu.shape[0]))
    z = z - z.mean(axis=0)
    if n > mu.shape[0]:
        z = z / np.sqrt(np.mean(z * z, axis=0))
    return mu + z * np.sqrt(np.clip(np.diag(sigma), 0.0, None))


class TestDiagonalMode:
    @pytest.fixture(scope="class")
    def stats(self):
        return compute_dataset_stats(generate_sbm(CRITERION_5_SBM))

    @pytest.mark.parametrize("seed", [0, 3, 2027])
    def test_features_match_former_sampler(self, stats, seed):
        cfg = NeutralConfig(covariance_mode="diagonal", seed=seed)
        got = construct_neutral(stats, cfg).graph.features
        want = former_diagonal_features(stats.mu_node, stats.sigma_node, 2000, seed)
        np.testing.assert_array_equal(got, want)


class TestNeutralLogits:
    def test_width_mismatch_is_shape_error(self):
        # the forward pass owns the check: a data error, exit 3
        neutral = construct_neutral(stats_for(d=2), NeutralConfig(seed=0))
        params = init_params(ModelConfig("gcn", 3, 4, 2, dropout=0.0))
        with pytest.raises(DataError, match="width 2, model expects 3"):
            neutral_logit_vector(params, neutral)

    def test_constant_rows_pool_to_row(self):
        stats = stats_for(n_bar=4.0, d_bar=0.0, d=2, mu=[1.0, 2.0],
                          sigma=np.zeros((2, 2)))
        neutral = construct_neutral(stats, NeutralConfig(seed=0))
        cfg = ModelConfig("gcn", 2, 3, 2, dropout=0.0, seed=1)
        params = init_params(cfg)
        vec = neutral_logit_vector(params, neutral)
        from neubm.models import predict_logits

        rows = predict_logits(params, neutral.graph)
        np.testing.assert_allclose(rows, np.tile(rows[0], (4, 1)), atol=1e-12)
        np.testing.assert_allclose(vec, rows[0], atol=1e-12)

    def test_zero_params_zero_vector(self):
        neutral = construct_neutral(stats_for(), NeutralConfig(seed=1))
        cfg = ModelConfig("gcn", 3, 4, 2, dropout=0.0)
        params = init_params(cfg)
        zero = params.from_flat(np.zeros(params.size))
        np.testing.assert_array_equal(
            neutral_logit_vector(zero, neutral), np.zeros(2)
        )

    def test_mean_of_rows(self):
        neutral = construct_neutral(stats_for(n_bar=3.0), NeutralConfig(seed=2))
        cfg = ModelConfig("gcn", 3, 4, 3, dropout=0.0, seed=4)
        params = init_params(cfg)
        from neubm.models import predict_logits

        rows = predict_logits(params, neutral.graph)
        np.testing.assert_allclose(
            neutral_logit_vector(params, neutral),
            (rows[0] + rows[1] + rows[2]) / 3.0,
            atol=1e-12,
        )


class TestNeutralOperatorReuse:
    """A NeutralGraph prepares its operator once per architecture, on its
    first probe; later probes run only the eval forward."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []

        def counting(graph, config):
            built.append(config.architecture)
            return prepare_operator(graph, config)

        monkeypatch.setattr(neutral_module, "prepare_operator", counting)
        return built

    @staticmethod
    def params(architecture):
        return init_params(ModelConfig(architecture, 3, 4, 3, dropout=0.0,
                                       num_heads=2, seed=6))

    @pytest.mark.parametrize("architecture", ["gcn", "gat"])
    def test_two_probes_build_one_operator(self, architecture, builds):
        neutral = construct_neutral(stats_for(n_bar=30.0), NeutralConfig(seed=4))
        params = self.params(architecture)
        want = predict_logits(params, neutral.graph).mean(axis=0)
        first = neutral_logit_vector(params, neutral)
        second = neutral_logit_vector(params, neutral)
        assert builds == [architecture]
        np.testing.assert_array_equal(first, want)
        np.testing.assert_array_equal(second, want)

    def test_each_architecture_gets_its_own_operator(self, builds):
        neutral = construct_neutral(stats_for(n_bar=30.0), NeutralConfig(seed=4))
        for architecture in ("gcn", "gat", "gcn", "gat"):
            params = self.params(architecture)
            np.testing.assert_array_equal(
                neutral_logit_vector(params, neutral),
                predict_logits(params, neutral.graph).mean(axis=0))
        assert builds == ["gcn", "gat"]
        assert sorted(neutral.operators) == ["gat", "gcn"]

    def test_operators_leave_equality_and_round_trip_alone(self, tmp_path, builds):
        neutral = construct_neutral(stats_for(n_bar=30.0), NeutralConfig(seed=4))
        params = self.params("gcn")
        vec = neutral_logit_vector(params, neutral)
        twin = replace(neutral)  # the same graph, stats and config
        assert twin.operators == {} and neutral.operators
        assert twin == neutral
        assert repr(twin) == repr(neutral)
        assert "operators" not in repr(neutral)
        # a probed graph saves the same files as its unprobed twin
        save_neutral(neutral, tmp_path / "neutral")
        save_neutral(twin, tmp_path / "twin")
        files = sorted(p.name for p in (tmp_path / "twin").iterdir())
        assert sorted(p.name for p in (tmp_path / "neutral").iterdir()) == files
        for name in files:
            assert ((tmp_path / "neutral" / name).read_bytes()
                    == (tmp_path / "twin" / name).read_bytes())
        loaded = load_neutral(tmp_path / "neutral")
        assert loaded.operators == {}
        np.testing.assert_array_equal(neutral_logit_vector(params, loaded), vec)
        assert builds == ["gcn", "gcn"]  # the loaded graph builds its own


class TestNeutralSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        source = Graph(num_nodes=12, features=rng.normal(size=(12, 3)),
                       edges=[(0, 1), (2, 3)])
        stats = compute_dataset_stats(source)
        neutral = construct_neutral(stats, NeutralConfig(seed=11))
        save_neutral(neutral, tmp_path / "neutral")
        loaded = load_neutral(tmp_path / "neutral")
        np.testing.assert_array_equal(loaded.graph.features, neutral.graph.features)
        np.testing.assert_array_equal(loaded.graph.edges, neutral.graph.edges)
        assert loaded.config == neutral.config
        assert loaded.config.seed == 11
        assert loaded.stats_used.n_bar == stats.n_bar
        np.testing.assert_array_equal(loaded.stats_used.sigma_node, stats.sigma_node)
        meta = json.loads((tmp_path / "neutral" / "neutral_meta.json").read_text())
        assert set(meta) == {"stats", "config", "neutral_logit_pooling"}
        assert set(meta["stats"]) == {"n_bar", "d_bar", "mu_node", "sigma_node"}
