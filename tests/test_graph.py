import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neubm.errors import (
    DensityUndefinedError,
    EmptyScopeError,
    GraphValidationError,
)
from neubm.graph import (
    Graph,
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
        with pytest.raises(GraphValidationError):
            make_graph(3, [(0, 5)])

    def test_self_pair_rejected(self):
        with pytest.raises(GraphValidationError):
            make_graph(3, [(1, 1)])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(GraphValidationError):
            make_graph(3, [(0, 1), (-1, 2)])

    def test_unpackable_endpoint_rejected(self):
        with pytest.raises(GraphValidationError):
            canonical_edges([(0, 2**40)])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(GraphValidationError):
            make_graph(2, [], labels=[0, 3], num_classes=2)

    def test_unlabeled_sentinel_allowed(self):
        g = make_graph(2, [], labels=[0, -1], num_classes=2)
        assert g.labels.tolist() == [0, -1]

    def test_overlapping_split_masks_rejected(self):
        masks = {"train": [True, False], "val": [True, False]}
        with pytest.raises(GraphValidationError):
            make_graph(2, [], masks=masks)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value):
        feats = np.zeros((3, 2))
        feats[1, 0] = value
        with pytest.raises(GraphValidationError):
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
        stats = compute_dataset_stats(g, scope="all_nodes")
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
        with pytest.raises(DensityUndefinedError):
            compute_dataset_stats(make_graph(1, []))

    def test_empty_scope(self):
        g = make_graph(3, [], masks={"train": [False, False, False]})
        with pytest.raises(EmptyScopeError):
            compute_dataset_stats(g, scope="train_mask")

    def test_train_scope_induced_subgraph(self):
        # edge (0,1) inside scope, (1,2) crossing out -> only one counted
        g = make_graph(3, [(0, 1), (1, 2)], masks={"train": [True, True, False]})
        stats = compute_dataset_stats(g, scope="train_mask")
        assert stats.n_bar == 2.0
        assert stats.d_bar == pytest.approx(1.0)

    def test_population_covariance_identity(self):
        # Sigma from centered rows equals (1/n) sum xx^T - mu mu^T
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 6))
        g = Graph(num_nodes=40, features=x, edges=[(0, 1)])
        stats = compute_dataset_stats(g)
        alt = x.T @ x / 40 - np.outer(stats.mu_node, stats.mu_node)
        np.testing.assert_allclose(stats.sigma_node, alt, atol=1e-10)

    def test_diagonal_mode_matches_full_diagonal(self):
        rng = np.random.default_rng(6)
        g = Graph(num_nodes=30, features=rng.normal(size=(30, 4)), edges=[(0, 1)])
        full = compute_dataset_stats(g, covariance_mode="full")
        diag = compute_dataset_stats(g, covariance_mode="diagonal")
        np.testing.assert_allclose(diag.sigma_node, np.diag(full.sigma_node))


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
