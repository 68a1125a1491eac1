import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from neubm.errors import DataError
from neubm.graph import (
    DatasetStats,
    Graph,
    bernoulli_cells,
    build_adjacency,
    canonical_edges,
    compute_dataset_stats,
    edge_density,
    symmetric_normalize,
)


def make_graph(n, edges, d=2, seed=0, **kw):
    rng = np.random.default_rng(seed)
    return Graph(num_nodes=n, features=rng.normal(size=(n, d)), edges=edges, **kw)


def random_graph(rng, n_max=12, d=3):
    n = int(rng.integers(2, n_max + 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.random(len(pairs)) < 0.4
    edges = [p for p, k in zip(pairs, keep) if k]
    return Graph(num_nodes=n, features=rng.normal(size=(n, d)), edges=edges)


class TestGraphInvariants:
    def test_edge_canonicalization(self):
        g = make_graph(4, [(2, 0), (0, 2), (1, 3)])
        assert g.edges.tolist() == [[0, 2], [1, 3]]

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(DataError):
            make_graph(3, [(0, 5)])

    def test_self_pair_rejected(self):
        with pytest.raises(DataError):
            make_graph(3, [(1, 1)])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(DataError):
            make_graph(3, [(0, 1), (-1, 2)])

    def test_unpackable_endpoint_rejected(self):
        with pytest.raises(DataError):
            canonical_edges([(0, 2**40)])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DataError):
            make_graph(2, [], labels=[0, 3], num_classes=2)

    def test_unlabeled_sentinel_allowed(self):
        g = make_graph(2, [], labels=[0, -1], num_classes=2)
        assert g.labels.tolist() == [0, -1]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value):
        feats = np.zeros((3, 2))
        feats[1, 0] = value
        with pytest.raises(DataError):
            Graph(num_nodes=3, features=feats, edges=[(0, 1)])

    def test_arrays_are_frozen(self):
        g = make_graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.features[0, 0] = 1.0


class TestBuildAdjacency:
    def test_two_node_self_loops(self):
        g = make_graph(2, [(0, 1)])
        adj = build_adjacency(g, add_self_loops=True)
        assert adj.toarray().tolist() == [[1, 1], [1, 1]]

    def test_single_node_identity(self):
        g = make_graph(1, [])
        adj = build_adjacency(g, add_self_loops=True)
        assert adj.toarray().tolist() == [[1]]

    def test_path_graph_no_self_loops(self):
        # hand-constructed adjacency of the 3-node path 0-1-2
        g = make_graph(3, [(0, 1), (1, 2)])
        adj = build_adjacency(g, add_self_loops=False)
        expected = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        assert adj.toarray().tolist() == expected

    def test_csr_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            adj = build_adjacency(random_graph(rng), add_self_loops=True)
            assert np.all(np.diff(adj.indptr) >= 0)
            for i in range(adj.shape[0]):
                cols = adj.indices[adj.indptr[i] : adj.indptr[i + 1]]
                assert np.all(np.diff(cols) > 0)
            dense = adj.toarray()
            np.testing.assert_array_equal(dense, dense.T)


class TestSymmetricNormalize:
    def test_complete_two_node(self):
        # degrees 2,2 -> every entry 1/sqrt(4) = 0.5
        g = make_graph(2, [(0, 1)])
        norm = symmetric_normalize(build_adjacency(g, add_self_loops=True))
        np.testing.assert_allclose(norm.toarray(), [[0.5, 0.5], [0.5, 0.5]])

    def test_identity_fixed_point(self):
        g = make_graph(3, [])
        norm = symmetric_normalize(build_adjacency(g, add_self_loops=True))
        np.testing.assert_array_equal(norm.toarray(), np.eye(3))

    def test_path_graph_values(self):
        # degrees 1,2,1 -> off-diagonal entries 1/sqrt(2)
        g = make_graph(3, [(0, 1), (1, 2)])
        norm = symmetric_normalize(build_adjacency(g, add_self_loops=False))
        dense = norm.toarray()
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(
            dense, [[0, s, 0], [s, 0, s], [0, s, 0]], atol=1e-15
        )

    def test_zero_degree_row_stays_zero(self):
        g = make_graph(3, [(0, 1)])
        norm = symmetric_normalize(build_adjacency(g, add_self_loops=False))
        dense = norm.toarray()
        assert np.all(dense[2] == 0) and np.all(dense[:, 2] == 0)

    def test_output_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            norm = symmetric_normalize(
                build_adjacency(random_graph(rng), add_self_loops=True)
            )
            dense = norm.toarray()
            np.testing.assert_allclose(dense, dense.T, atol=1e-12)

    def test_idempotent_on_regular_graphs(self):
        # complete graph + self loops is n-regular: rows of the normalized
        # matrix sum to 1, so a second normalization is the identity
        n = 5
        g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        once = symmetric_normalize(build_adjacency(g, add_self_loops=True))
        twice = symmetric_normalize(once)
        np.testing.assert_allclose(twice.toarray(), once.toarray(), atol=1e-12)

    def test_degree_scaling_oracle(self):
        # entry (i,j) must equal a_ij / sqrt(deg_i deg_j) from a dense recomputation
        rng = np.random.default_rng(11)
        g = random_graph(rng, n_max=9)
        adj = build_adjacency(g, add_self_loops=True)
        dense = adj.toarray()
        deg = dense.sum(axis=1)
        expected = dense / np.sqrt(np.outer(deg, deg))
        np.testing.assert_allclose(
            symmetric_normalize(adj).toarray(), expected, atol=1e-14
        )


class TestDatasetStats:
    def test_density_by_hand(self):
        # 4 nodes, 3 edges: 2*3 / (4*3) = 0.5
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        stats = compute_dataset_stats(g)
        assert stats.n_bar == 4.0
        assert stats.d_bar == pytest.approx(0.5)

    def test_constant_features(self):
        v = np.array([1.5, -2.0, 0.25])
        g = Graph(num_nodes=5, features=np.tile(v, (5, 1)), edges=[(0, 1)])
        stats = compute_dataset_stats(g)
        np.testing.assert_array_equal(stats.mu_node, v)
        np.testing.assert_array_equal(stats.sigma_node, np.zeros((3, 3)))

    def test_citation_network_scale_density(self):
        # density at a classic citation-network size: 2*5429/(2708*2707)
        assert edge_density(2708, 5429) == pytest.approx(0.00148, abs=5e-6)

    def test_density_undefined_single_node(self):
        with pytest.raises(DataError):
            compute_dataset_stats(make_graph(1, []))

    def test_population_covariance_identity(self):
        # Sigma from centered rows equals (1/n) sum xx^T - mu mu^T
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 6))
        g = Graph(num_nodes=40, features=x, edges=[(0, 1)])
        stats = compute_dataset_stats(g)
        alt = x.T @ x / 40 - np.outer(stats.mu_node, stats.mu_node)
        np.testing.assert_allclose(stats.sigma_node, alt, atol=1e-10)

    def test_sigma_is_a_full_matrix(self):
        # the stats always hold the full covariance; a neutral config's
        # covariance_mode decides how much of it the sampler uses
        rng = np.random.default_rng(6)
        g = Graph(num_nodes=30, features=rng.normal(size=(30, 4)), edges=[(0, 1)])
        stats = compute_dataset_stats(g)
        assert stats.sigma_node.shape == (4, 4)
        with pytest.raises(DataError, match=r"\(4, 4\) matrix"):
            DatasetStats(n_bar=30.0, d_bar=0.1, mu_node=stats.mu_node,
                         sigma_node=np.diag(stats.sigma_node))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=10_000),
    p=st.floats(min_value=0.0, max_value=1.0),
)
def test_density_bounds_property(n, seed, p):
    # 0 <= density <= 1 always; 1 exactly for complete graphs (brute-force count)
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pr for pr in pairs if rng.random() < p]
    g = Graph(num_nodes=n, features=np.zeros((n, 1)), edges=edges)
    stats = compute_dataset_stats(g)
    assert 0.0 <= stats.d_bar <= 1.0
    assert stats.d_bar == pytest.approx(len(edges) / len(pairs))
    if len(edges) == len(pairs):
        assert stats.d_bar == 1.0


def reference_canonical_edges(edges):
    """The former canonicalisation: row-wise np.unique over (lo, hi) pairs."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if arr.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=3000),
    m=st.integers(min_value=0, max_value=60),
    dup_frac=st.floats(min_value=0.0, max_value=1.0),
    order=st.sampled_from(["shuffled", "canonical", "sorted_with_duplicates"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_canonical_edges_matches_reference(n, m, dup_frac, order, seed):
    # shuffled, partly flipped, partly duplicated pairs; m = 0 is the empty
    # list. Already canonical input takes the path that skips the sort; a
    # sorted list that repeats pairs must still be deduplicated.
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=m)
    v = (u + rng.integers(1, n, size=m)) % n  # never a self-pair
    pairs = np.stack([u, v], axis=1)
    dups = pairs[rng.random(m) < dup_frac]
    edges = np.concatenate([pairs, dups[:, ::-1], dups])
    edges = edges[rng.permutation(len(edges))]
    if order != "shuffled":
        edges = reference_canonical_edges(edges)
        if order == "sorted_with_duplicates":
            edges = np.repeat(edges, rng.integers(1, 3, size=len(edges)), axis=0)
    got = canonical_edges(edges)
    want = reference_canonical_edges(edges)
    assert got.dtype == np.int64 and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def unique_key_canonical_edges(edges):
    """The former duplicate removal: np.unique over the packed keys."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo, hi = arr.min(axis=1), arr.max(axis=1)
    span = int(hi.max()) + 1
    keys = np.unique(lo * span + hi)
    return np.stack([keys // span, keys % span], axis=1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5000),
    m=st.integers(min_value=1, max_value=4000),
    dup_frac=st.floats(min_value=0.0, max_value=1.0),
    flip_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_canonical_edges_matches_packed_key_unique(n, m, dup_frac, flip_frac,
                                                    seed):
    # shuffled lists in which a fraction of pairs repeats and a fraction is
    # flipped (v, u); sorting the keys and dropping adjacent repeats must
    # give exactly what np.unique gave
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=m)
    v = (u + rng.integers(1, n, size=m)) % n
    pairs = np.stack([u, v], axis=1)
    edges = np.concatenate([pairs, pairs[rng.random(m) < dup_frac]])
    flip = rng.random(len(edges)) < flip_frac
    edges[flip] = edges[flip, ::-1]
    edges = edges[rng.permutation(len(edges))]
    got = canonical_edges(edges)
    want = unique_key_canonical_edges(edges)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


class TestBernoulliCells:
    def test_per_cell_hit_rate_chi_square(self):
        # each of 60 cells is hit in Binomial(3000, p) of 3000 seeded draws;
        # the standardized squares sum to chi2(60), and so do those of the
        # pairs of neighbouring cells, which are hit together with p^2
        cells, runs = 60, 3000
        for p in (0.05, 0.3, 0.8):
            counts, pairs = np.zeros(cells), np.zeros(cells - 1)
            for seed in range(runs):
                hit = np.zeros(cells, dtype=bool)
                hit[bernoulli_cells(np.random.default_rng(seed), cells, p)] = True
                counts += hit
                pairs += hit[1:] & hit[:-1]
            for observed, q in ((counts, p), (pairs, p * p)):
                expected = runs * q
                chi2 = float(((observed - expected) ** 2
                              / (expected * (1 - q))).sum())
                assert sps.chi2.sf(chi2, df=observed.size) > 1e-3, (p, q, chi2)

    def test_hit_count_is_binomial(self):
        # 400 draws over 10^6 cells at p = 1e-3: the counts' mean and
        # variance match Binomial(10^6, 1e-3) (999 and 998) within 4 sigma
        cells, p, runs = 10**6, 1e-3, 400
        sizes = np.array([bernoulli_cells(np.random.default_rng(s), cells, p).size
                          for s in range(runs)], dtype=float)
        mean, var = cells * p, cells * p * (1 - p)
        assert abs(sizes.mean() - mean) < 4 * np.sqrt(var / runs)
        assert abs(sizes.var(ddof=1) / var - 1) < 4 * np.sqrt(2 / (runs - 1))

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.integers(0, 5000),
        p=st.floats(-0.5, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sorted_unique_in_range(self, cells, p, seed):
        hits = bernoulli_cells(np.random.default_rng(seed), cells, p)
        assert hits.dtype == np.int64 and hits.ndim == 1
        assert np.all(np.diff(hits) > 0)
        assert hits.size == 0 or (hits[0] >= 0 and hits[-1] < cells)

    def test_exact_cases(self):
        rng = np.random.default_rng(0)
        for p in (0.0, -1.0):
            assert bernoulli_cells(rng, 100, p).size == 0
        for p in (1.0, 2.0):
            np.testing.assert_array_equal(bernoulli_cells(rng, 7, p), np.arange(7))
        for cells in (0, -3):
            assert bernoulli_cells(rng, cells, 0.5).size == 0
            assert bernoulli_cells(rng, cells, 1.0).size == 0
        # the exact cases consume no draws
        np.testing.assert_array_equal(rng.random(3),
                                      np.random.default_rng(0).random(3))

    def test_tiny_probability_does_not_overflow(self):
        # skips of about 1e300 cells are capped before they are summed
        with np.errstate(all="ignore"):
            hits = bernoulli_cells(np.random.default_rng(1), 2**40, 1e-300)
        assert hits.size == 0

    @pytest.mark.parametrize("cells,p", [(1, 0.5), (50, 0.5), (5000, 0.01),
                                         (200, 0.97)])
    def test_top_up_rounds_match_one_round(self, cells, p):
        # two skips per round force the top-up path; the geometric stream is
        # drawn in order either way, so the hits are the same
        class TinyDraws:
            rounds = 0

            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def geometric(self, p, size):
                self.rounds += 1
                return self.rng.geometric(p, size=min(size, 2))

        for seed in range(5):
            tiny = TinyDraws(seed)
            got = bernoulli_cells(tiny, cells, p)
            expected = bernoulli_cells(np.random.default_rng(seed), cells, p)
            np.testing.assert_array_equal(got, expected)
            # each round yields two hits until one passes the end
            assert tiny.rounds == (expected.size + 2) // 2
