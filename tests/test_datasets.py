import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import neubm.datasets as datasets
from neubm.datasets import (
    NoiseSpec,
    SbmConfig,
    SplitAssignment,
    apply_split,
    describe,
    _class_means,
    generate_sbm,
    inject_noise,
    kfold_splits,
    largest_remainder,
    load_canonical,
    save_canonical,
    sbm_class_sizes,
    stratified_split,
)
from neubm.errors import (
    DatasetParseError,
    GraphValidationError,
    InfeasibleError,
)
from neubm.graph import Graph


def small_graph(n=3, labeled=True):
    rng = np.random.default_rng(0)
    return Graph(
        num_nodes=n,
        features=rng.normal(size=(n, 4)),
        edges=[(0, 1), (1, 2)],
        labels=np.arange(n) % 2 if labeled else None,
        num_classes=2 if labeled else None,
    )


class TestCanonicalFormat:
    def test_round_trip(self, tmp_path):
        g = small_graph()
        save_canonical(g, tmp_path / "ds")
        loaded = load_canonical(tmp_path / "ds")
        assert loaded.num_nodes == 3
        np.testing.assert_array_equal(loaded.features, g.features)
        np.testing.assert_array_equal(loaded.edges, g.edges)
        np.testing.assert_array_equal(loaded.labels, g.labels)

    def test_round_trip_with_masks(self, tmp_path):
        g = small_graph().with_masks(
            {"train": [True, False, False], "val": [False, True, False]}
        )
        save_canonical(g, tmp_path / "ds")
        loaded = load_canonical(tmp_path / "ds")
        np.testing.assert_array_equal(loaded.mask("train"), [True, False, False])

    def test_describe_format(self, tmp_path):
        g = small_graph()
        save_canonical(g, tmp_path / "ds")
        line = describe(load_canonical(tmp_path / "ds"))
        assert line.startswith("3 nodes, 2 edges, 4 features, 2 classes")
        assert "rho=2" in line and "1/rho=0.5" in line

    def test_edge_out_of_range_is_structural_error(self, tmp_path):
        save_canonical(small_graph(10), tmp_path / "ds")
        (tmp_path / "ds" / "edges.csv").write_text("0,99\n")
        with pytest.raises(GraphValidationError):
            load_canonical(tmp_path / "ds")

    def test_malformed_header_names_file(self, tmp_path):
        save_canonical(small_graph(), tmp_path / "ds")
        (tmp_path / "ds" / "meta.json").write_text("{not json")
        with pytest.raises(DatasetParseError) as exc:
            load_canonical(tmp_path / "ds")
        assert "meta.json" in str(exc.value)

    def test_feature_dimension_mismatch_names_line(self, tmp_path):
        save_canonical(small_graph(), tmp_path / "ds")
        path = tmp_path / "ds" / "features.csv"
        lines = path.read_text().splitlines()
        lines[1] = "1.0,2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetParseError) as exc:
            load_canonical(tmp_path / "ds")
        assert "features.csv:2" in str(exc.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        save_canonical(small_graph(), tmp_path / "ds")
        path = tmp_path / "ds" / "features.csv"
        lines = path.read_text().splitlines()
        lines[2] = ",".join([value] + lines[2].split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetParseError) as exc:
            load_canonical(tmp_path / "ds")
        assert "features.csv:3" in str(exc.value)

    def test_label_out_of_range_rejected(self, tmp_path):
        save_canonical(small_graph(), tmp_path / "ds")
        (tmp_path / "ds" / "labels.csv").write_text("0\n1\n7\n")
        with pytest.raises(DatasetParseError) as exc:
            load_canonical(tmp_path / "ds")
        assert "labels.csv:3" in str(exc.value)

    def test_unsorted_edge_rejected(self, tmp_path):
        save_canonical(small_graph(), tmp_path / "ds")
        (tmp_path / "ds" / "edges.csv").write_text("2,1\n")
        with pytest.raises(DatasetParseError):
            load_canonical(tmp_path / "ds")


class TestSbm:
    def test_two_class_sizes(self):
        # a + b = 10, a/b = 4 -> {8, 2}
        cfg = SbmConfig(
            num_classes=2, total_nodes=10, rho=4, p_intra=0.5, p_inter=0.1,
            feature_dim=2,
        )
        assert sorted(sbm_class_sizes(cfg).tolist(), reverse=True) == [8, 2]

    def test_balanced_sizes(self):
        cfg = SbmConfig(
            num_classes=5, total_nodes=100, rho=1, p_intra=0.5, p_inter=0.1,
            feature_dim=5,
        )
        assert sbm_class_sizes(cfg).tolist() == [20] * 5

    def test_realized_ratio_near_target(self):
        cfg = SbmConfig(
            num_classes=5, total_nodes=2000, rho=10, p_intra=0.05, p_inter=0.005,
            feature_dim=8,
        )
        sizes = sbm_class_sizes(cfg)
        assert sizes.sum() == 2000
        # one node of slack on the smallest class covers the rounding gap
        assert abs(sizes.max() - cfg.rho * sizes.min()) <= cfg.rho

    def test_determinism(self):
        cfg = SbmConfig(
            num_classes=3, total_nodes=60, rho=3, p_intra=0.3, p_inter=0.05,
            feature_dim=4, seed=11,
        )
        g1, g2 = generate_sbm(cfg), generate_sbm(cfg)
        np.testing.assert_array_equal(g1.features, g2.features)
        np.testing.assert_array_equal(g1.edges, g2.edges)
        np.testing.assert_array_equal(g1.labels, g2.labels)

    def test_labels_follow_blocks(self):
        cfg = SbmConfig(
            num_classes=2, total_nodes=10, rho=4, p_intra=0.5, p_inter=0.1,
            feature_dim=2, seed=3,
        )
        g = generate_sbm(cfg)
        assert np.bincount(g.labels).tolist() == [8, 2]

    def test_class_mean_distance(self):
        cfg = SbmConfig(
            num_classes=3, total_nodes=3000, rho=1, p_intra=0.0, p_inter=0.0,
            feature_dim=3, class_mean_separation=5.0, feature_std=0.5, seed=2,
        )
        g = generate_sbm(cfg)
        means = np.stack([g.features[g.labels == c].mean(axis=0) for c in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                d = np.linalg.norm(means[i] - means[j])
                assert d == pytest.approx(5.0, abs=0.15)

    def test_intra_density_matches_probability(self):
        # realized intra-class density within 3 binomial sigma of p_intra
        cfg = SbmConfig(
            num_classes=4, total_nodes=2000, rho=2, p_intra=0.02, p_inter=0.002,
            feature_dim=4, seed=9,
        )
        g = generate_sbm(cfg)
        sizes = np.bincount(g.labels)
        intra_pairs = int((sizes * (sizes - 1) // 2).sum())
        same = g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]]
        realized = same.sum() / intra_pairs
        sigma = np.sqrt(cfg.p_intra * (1 - cfg.p_intra) / intra_pairs)
        assert abs(realized - cfg.p_intra) < 3 * sigma

    def test_infeasible_configs(self):
        with pytest.raises(InfeasibleError):
            SbmConfig(num_classes=5, total_nodes=3, rho=1, p_intra=0.1,
                      p_inter=0.05, feature_dim=5)
        with pytest.raises(InfeasibleError):
            SbmConfig(num_classes=2, total_nodes=10, rho=2, p_intra=0.1,
                      p_inter=0.5, feature_dim=2)


def reference_generate_sbm(config: SbmConfig) -> Graph:
    """The full-block generator: one dense uniform matrix per class pair."""
    sizes = sbm_class_sizes(config)
    labels = np.repeat(np.arange(config.num_classes), sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    rng = np.random.default_rng(config.seed)
    edge_chunks = []
    for ci in range(config.num_classes):
        for cj in range(ci, config.num_classes):
            p = config.p_intra if ci == cj else config.p_inter
            si = np.arange(offsets[ci], offsets[ci + 1])
            sj = np.arange(offsets[cj], offsets[cj + 1])
            draws = rng.random((len(si), len(sj)))
            if ci == cj:
                iu, ju = np.triu_indices(len(si), k=1)
                hit = draws[iu, ju] < p
                us, vs = si[iu[hit]], sj[ju[hit]]
            else:
                iu, ju = np.nonzero(draws < p)
                us, vs = si[iu], sj[ju]
            if us.size:
                edge_chunks.append(np.stack([us, vs], axis=1))
    edges = (
        np.concatenate(edge_chunks) if edge_chunks else np.zeros((0, 2), dtype=np.int64)
    )
    features = _class_means(config)[labels] + rng.normal(
        0.0, config.feature_std, size=(config.total_nodes, config.feature_dim)
    )
    return Graph(num_nodes=config.total_nodes, features=features, edges=edges,
                 labels=labels, num_classes=config.num_classes)


PROBABILITIES = (0.0, 0.05, 0.5, 1.0)


@settings(max_examples=120, deadline=None)
@given(
    num_classes=st.integers(1, 4),
    extra_nodes=st.integers(0, 50),
    rho=st.sampled_from([1.0, 2.0, 6.0]),
    p_pair=st.tuples(st.sampled_from(PROBABILITIES), st.sampled_from(PROBABILITIES)),
    strip=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
)
# every class a single node
@example(num_classes=4, extra_nodes=0, rho=1.0, p_pair=(1.0, 1.0), strip=3, seed=0)
# every block wider than a strip: one row per strip
@example(num_classes=2, extra_nodes=40, rho=2.0, p_pair=(0.5, 0.05), strip=1, seed=1)
# class sizes 28/14 against a 45-uniform strip: strips of 1 and 3 rows,
# the last strip of each block partial
@example(num_classes=2, extra_nodes=40, rho=2.0, p_pair=(0.05, 0.0), strip=45, seed=2)
def test_strip_sbm_matches_full_block_reference(num_classes, extra_nodes, rho,
                                                p_pair, strip, seed):
    p_inter, p_intra = sorted(p_pair)
    try:
        cfg = SbmConfig(
            num_classes=num_classes, total_nodes=num_classes + extra_nodes,
            rho=rho, p_intra=p_intra, p_inter=p_inter,
            feature_dim=num_classes + 1, seed=seed,
        )
        sbm_class_sizes(cfg)
    except InfeasibleError:
        return
    expected = reference_generate_sbm(cfg)
    with mock.patch.object(datasets, "SBM_STRIP_UNIFORMS", strip):
        got = generate_sbm(cfg)
    np.testing.assert_array_equal(got.edges, expected.edges)
    np.testing.assert_array_equal(got.features, expected.features)
    np.testing.assert_array_equal(got.labels, expected.labels)


def test_sbm_at_criterion_seeds_matches_full_block_reference():
    for seed in (2024, 7):
        cfg = SbmConfig(
            num_classes=5, total_nodes=2000, rho=10, p_intra=0.02, p_inter=0.006,
            feature_dim=16, class_mean_separation=0.8, seed=seed,
        )
        got, expected = generate_sbm(cfg), reference_generate_sbm(cfg)
        np.testing.assert_array_equal(got.edges, expected.edges)
        np.testing.assert_array_equal(got.features, expected.features)


@pytest.mark.parametrize("seed", [2024, 7])
def test_sbm_emits_strictly_increasing_packed_keys(seed):
    # generate_sbm sorts its packed keys itself, so the Graph it builds
    # takes canonical_edges' fast path (no sort, no deduplication)
    cfg = SbmConfig(
        num_classes=5, total_nodes=2000, rho=10, p_intra=0.02, p_inter=0.006,
        feature_dim=16, class_mean_separation=0.8, seed=seed,
    )
    with mock.patch.object(datasets, "Graph", wraps=Graph) as graph_cls:
        graph = generate_sbm(cfg)
    edges = np.asarray(graph_cls.call_args.kwargs["edges"])
    assert edges.dtype == np.int64 and edges.shape == (graph.num_edges, 2)
    assert np.all(edges[:, 0] < edges[:, 1])
    keys = edges[:, 0] * cfg.total_nodes + edges[:, 1]
    assert np.all(keys[1:] > keys[:-1])


def test_sbm_memory_stays_linear_in_edges_at_10k_nodes():
    # the benchmark's block model with p scaled by 2000/n (mean degree ~20);
    # the full-block generator peaked at about 432 MB here
    scale = 2000 / 10_000
    cfg = SbmConfig(
        num_classes=5, total_nodes=10_000, rho=10, p_intra=0.02 * scale,
        p_inter=0.006 * scale, feature_dim=16, class_mean_separation=0.8,
        seed=2024,
    )
    tracemalloc.start()
    try:
        graph = generate_sbm(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.num_edges > 90_000
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestLargestRemainder:
    def test_exact_total(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = rng.random(5) * 20
            total = int(round(t.sum()))
            out = largest_remainder(t, total)
            assert out.sum() == total
            assert np.all(out >= np.floor(t))


def labeled_graph(class_sizes, seed=0):
    labels = np.repeat(np.arange(len(class_sizes)), class_sizes)
    n = len(labels)
    rng = np.random.default_rng(seed)
    return Graph(
        num_nodes=n,
        features=rng.normal(size=(n, 2)),
        edges=[(0, 1)],
        labels=labels,
        num_classes=len(class_sizes),
    )


class TestStratifiedSplit:
    def test_balanced_proportions(self):
        g = labeled_graph([500, 500])
        s = stratified_split(g, 0.1, 0.1, min_per_class=5, seed=1)
        assert len(s.train) == 100 and len(s.val) == 100 and len(s.test) == 800
        train_labels = g.labels[s.train]
        assert np.bincount(train_labels).tolist() == [50, 50]

    def test_minority_topped_up(self):
        # proportional share of the 5-node class is 0.5 -> topped up to 5
        g = labeled_graph([55, 5])
        s = stratified_split(g, 0.1, 0.1, min_per_class=5, seed=1)
        assert np.count_nonzero(g.labels[s.train] == 1) == 5

    def test_degenerate_all_test(self):
        g = labeled_graph([30, 30])
        s = stratified_split(g, 0.0, 0.0, min_per_class=0, seed=1)
        assert len(s.train) == 0 and len(s.val) == 0 and len(s.test) == 60

    def test_disjoint_and_complete(self):
        g = labeled_graph([40, 25, 12])
        s = stratified_split(g, 0.2, 0.2, min_per_class=3, seed=4)
        all_idx = np.concatenate([s.train, s.val, s.test])
        assert len(np.unique(all_idx)) == len(all_idx) == 77

    def test_reproducible(self):
        g = labeled_graph([40, 25, 12])
        a = stratified_split(g, 0.2, 0.2, 3, seed=9)
        b = stratified_split(g, 0.2, 0.2, 3, seed=9)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)

    @pytest.mark.parametrize("name", ["train", "val", "test"])
    def test_apply_split_rejects_unlabeled_nodes(self, name):
        g = Graph(num_nodes=4, features=np.zeros((4, 1)), edges=[],
                  labels=[0, 1, 0, -1], num_classes=2)
        parts = {"train": [0], "val": [1], "test": [2]}
        parts[name] = parts[name] + [3]
        with pytest.raises(GraphValidationError) as exc:
            apply_split(g, SplitAssignment(**parts, seed=0))
        assert name in str(exc.value)

    def test_apply_split_keeps_unlabeled_nodes_outside_split(self):
        g = Graph(num_nodes=4, features=np.zeros((4, 1)), edges=[],
                  labels=[0, 1, 0, -1], num_classes=2)
        out = apply_split(g, SplitAssignment([0], [1], [2], seed=0))
        assert not any(m[3] for m in out.masks.values())

    def test_class_too_small(self):
        g = labeled_graph([30, 3])
        with pytest.raises(InfeasibleError) as exc:
            stratified_split(g, 0.1, 0.1, min_per_class=5, seed=0)
        assert "class 1" in str(exc.value)

    def test_stratification_bounds(self):
        # no top-up regime: every class train count >= floor(frac*size) and
        # test proportions track overall proportions within one node
        rng = np.random.default_rng(12)
        for _ in range(20):
            sizes = rng.integers(40, 200, size=4)
            g = labeled_graph(sizes.tolist(), seed=int(rng.integers(1e6)))
            s = stratified_split(g, 0.1, 0.1, min_per_class=2, seed=7)
            n = sizes.sum()
            for c, size in enumerate(sizes):
                tr = np.count_nonzero(g.labels[s.train] == c)
                assert tr >= min(2, int(np.floor(0.1 * size)))
                te = np.count_nonzero(g.labels[s.test] == c)
                assert abs(te - len(s.test) * size / n) <= 1.0 + 1e-9


class TestKfold:
    def test_five_folds_ratio(self):
        g = labeled_graph([500, 500])
        folds = kfold_splits(g, 5, 0.1, 0.1, 5, seed=3)
        assert len(folds) == 5
        for fold_id, s in enumerate(folds):
            assert s.fold_id == fold_id
            assert s.seed == 3 + fold_id
            assert (len(s.train), len(s.val), len(s.test)) == (100, 100, 800)

    def test_k1_reduces_to_single_split(self):
        g = labeled_graph([60, 30])
        single = stratified_split(g, 0.1, 0.1, 5, seed=8)
        fold = kfold_splits(g, 1, 0.1, 0.1, 5, seed=8)[0]
        np.testing.assert_array_equal(single.train, fold.train)
        np.testing.assert_array_equal(single.val, fold.val)

    def test_fold_family_deterministic(self):
        g = labeled_graph([60, 30])
        a = kfold_splits(g, 3, 0.1, 0.1, 5, seed=2)
        b = kfold_splits(g, 3, 0.1, 0.1, 5, seed=2)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.train, fb.train)


class TestNoise:
    def test_zero_level_identity(self):
        g = small_graph()
        assert inject_noise(g, NoiseSpec("feature", 0.0, seed=1)) is g
        assert inject_noise(g, NoiseSpec("structural", 0.0, seed=1)) is g

    def test_feature_noise_row_count(self):
        rng = np.random.default_rng(5)
        g = Graph(num_nodes=50, features=rng.normal(size=(50, 6)), edges=[(0, 1)])
        noisy = inject_noise(g, NoiseSpec("feature", 0.4, seed=2))
        changed = np.any(noisy.features != g.features, axis=1)
        assert changed.sum() == round(0.4 * 50)

    def test_structural_full_rewire(self):
        cfg = SbmConfig(
            num_classes=2, total_nodes=50, rho=1, p_intra=0.16, p_inter=0.16,
            feature_dim=2, seed=6,
        )
        g = generate_sbm(cfg)
        m = g.num_edges
        noisy = inject_noise(g, NoiseSpec("structural", 1.0, seed=3))
        assert noisy.num_edges == m
        original = {tuple(e) for e in g.edges.tolist()}
        new = {tuple(e) for e in noisy.edges.tolist()}
        assert len(new - original) == m  # every edge rewired

    def test_structural_preserves_degree_sum(self):
        cfg = SbmConfig(
            num_classes=2, total_nodes=40, rho=2, p_intra=0.2, p_inter=0.05,
            feature_dim=2, seed=1,
        )
        g = generate_sbm(cfg)
        noisy = inject_noise(g, NoiseSpec("structural", 0.3, seed=4))
        assert noisy.num_edges == g.num_edges
        np.testing.assert_array_equal(noisy.labels, g.labels)

    def test_partial_rewire_count(self):
        cfg = SbmConfig(
            num_classes=2, total_nodes=40, rho=1, p_intra=0.25, p_inter=0.25,
            feature_dim=2, seed=8,
        )
        g = generate_sbm(cfg)
        k = round(0.25 * g.num_edges)
        noisy = inject_noise(g, NoiseSpec("structural", 0.25, seed=5))
        original = {tuple(e) for e in g.edges.tolist()}
        new = {tuple(e) for e in noisy.edges.tolist()}
        assert len(new - original) == k
        assert len(original - new) == k
