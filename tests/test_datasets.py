import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy import stats as sps

import neubm.datasets as datasets
from neubm.datasets import (
    NoiseSpec,
    SbmConfig,
    describe,
    generate_sbm,
    inject_noise,
    kfold_splits,
    largest_remainder,
    load_canonical,
    save_canonical,
    save_masks,
    sbm_class_sizes,
    stored_split,
    stratified_split,
)
from neubm.errors import ConfigError, DataError
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

    def test_describe_format(self, tmp_path):
        g = small_graph()
        save_canonical(g, tmp_path / "ds")
        line = describe(load_canonical(tmp_path / "ds"))
        assert line.startswith("3 nodes, 2 edges, 4 features, 2 classes")
        assert "rho=2" in line and "1/rho=0.5" in line

    def test_edge_out_of_range_is_structural_error(self, tmp_path):
        save_canonical(small_graph(10), tmp_path / "ds")
        (tmp_path / "ds" / "edges.csv").write_text("0,99\n")
        with pytest.raises(DataError):
            load_canonical(tmp_path / "ds")

    def test_malformed_header_names_file(self, tmp_path):
        save_canonical(small_graph(), tmp_path / "ds")
        (tmp_path / "ds" / "meta.json").write_text("{not json")
        with pytest.raises(DataError) as exc:
            load_canonical(tmp_path / "ds")
        assert "meta.json" in str(exc.value)

    def test_feature_dimension_mismatch_names_line(self, tmp_path):
        save_canonical(small_graph(), tmp_path / "ds")
        path = tmp_path / "ds" / "features.csv"
        lines = path.read_text().splitlines()
        lines[1] = "1.0,2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as exc:
            load_canonical(tmp_path / "ds")
        assert "features.csv:2" in str(exc.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        save_canonical(small_graph(), tmp_path / "ds")
        path = tmp_path / "ds" / "features.csv"
        lines = path.read_text().splitlines()
        lines[2] = ",".join([value] + lines[2].split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError) as exc:
            load_canonical(tmp_path / "ds")
        assert "features.csv:3" in str(exc.value)

    def test_label_out_of_range_rejected(self, tmp_path):
        save_canonical(small_graph(), tmp_path / "ds")
        (tmp_path / "ds" / "labels.csv").write_text("0\n1\n7\n")
        with pytest.raises(DataError) as exc:
            load_canonical(tmp_path / "ds")
        assert "labels.csv:3" in str(exc.value)

    def test_unsorted_edge_rejected(self, tmp_path):
        save_canonical(small_graph(), tmp_path / "ds")
        (tmp_path / "ds" / "edges.csv").write_text("2,1\n")
        with pytest.raises(DataError):
            load_canonical(tmp_path / "ds")

    @pytest.mark.parametrize("name, content, named", [
        ("meta.json", "[3, 4, 2]", "meta.json"),
        ("meta.json", '{"num_nodes": "three", "num_features": 4, '
                      '"num_classes": 2, "directed": false}', "meta.json"),
        ("meta.json", '{"num_nodes": 3, "num_features": 4}', "meta.json"),
        ("meta.json", '{"num_nodes": 3, "num_features": 4, '
                      '"num_classes": true, "directed": false}', "meta.json"),
        ("meta.json", '{"num_nodes": 3, "num_features": 4, '
                      '"num_classes": 2, "directed": 0}', "meta.json"),
        ("edges.csv", "0,1\n0,x\n", "edges.csv:2"),
        ("edges.csv", "0,1\n0,1\n", "edges.csv"),
        ("labels.csv", "0\n1\n", "labels.csv"),
        ("labels.csv", None, "labels.csv"),
        ("meta.json", '{"a": ' * 100_000 + "1" + "}" * 100_000, "meta.json"),
        ("edges.csv", "0,1\n1,3\n", "edges.csv:2"),
        ("edges.csv", "-1,1\n", "edges.csv:1"),
    ], ids=["meta_not_object", "meta_count_not_integer", "meta_missing_keys",
            "meta_count_bool", "meta_directed_not_false", "edge_not_integer",
            "duplicate_edge", "labels_short", "labels_missing",
            "meta_deeply_nested", "edge_endpoint_too_large",
            "edge_endpoint_negative"])
    def test_malformed_file_names_it(self, tmp_path, name, content, named):
        save_canonical(small_graph(), tmp_path / "ds")
        path = tmp_path / "ds" / name
        if content is None:
            path.unlink()
        else:
            path.write_text(content)
        with pytest.raises(DataError) as exc:
            load_canonical(tmp_path / "ds")
        assert named in str(exc.value)

    def test_masks_file_not_read(self, tmp_path):
        save_canonical(small_graph(), tmp_path / "ds")
        (tmp_path / "ds" / "masks.json").write_text("not json")
        assert load_canonical(tmp_path / "ds").num_nodes == 3


def split_parts(split):
    """The train, val and test indices of ``split``, as lists."""
    parts = [split.train, split.val, split.test]
    assert all(part.dtype == np.int64 for part in parts)
    return [part.tolist() for part in parts]


class TestStoredSplit:
    def test_save_masks_round_trip(self, tmp_path):
        g = generate_sbm(SbmConfig(num_classes=3, total_nodes=90, rho=2,
                                   p_intra=0.1, p_inter=0.01, feature_dim=4))
        split = stratified_split(g, 0.2, 0.2, 3, seed=1)
        save_masks(split, tmp_path)
        assert split_parts(stored_split(tmp_path, g.num_nodes)) == split_parts(split)

    def test_absent_file_is_no_split(self, tmp_path):
        assert stored_split(tmp_path, 3) is None

    def test_parts_read_as_sorted_sets(self, tmp_path):
        (tmp_path / "masks.json").write_text(
            '{"test": [4, 3, 3, 5], "train": [2, 0, 2], "val": [1, 1]}')
        assert split_parts(stored_split(tmp_path, 6)) == [[0, 2], [1], [3, 4, 5]]

    @pytest.mark.parametrize("content, named", [
        ('{"train": [0, 99]}', "'train' must list node indices in [0, 3)"),
        ('{"train": "0"}', "'train' must list node indices"),
        ('{"train": [true, 2]}', "'train' must list node indices"),
        ("[" * 100_000 + "]" * 100_000, "nested too deeply"),
        ('{"train": [0], "val": [0, 1]}', "'train' and 'val' overlap"),
        ('{"train": [0], "val": [1], "test": [1, 2]}', "'val' and 'test' overlap"),
        ('{"train": [0], "val": [1], "test": [2], "tset": []}', "['tset']"),
    ], ids=["out_of_range", "not_list", "bool_index", "deeply_nested",
            "overlap", "overlap_in_full_split", "unknown_key"])
    def test_malformed_file_names_it(self, tmp_path, content, named):
        (tmp_path / "masks.json").write_text(content)
        with pytest.raises(DataError) as exc:
            stored_split(tmp_path, 3)
        assert named in str(exc.value) and "masks.json]" in str(exc.value)


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
        # the realized intra- and inter-class edge counts of 100 seeded
        # graphs, as binomial z-scores, have mean 0 and sd 1: a one-draw
        # 3 sigma band would pass a generator biased by up to 3 sigma
        base = SbmConfig(num_classes=4, total_nodes=2000, rho=2, p_intra=0.02,
                         p_inter=0.002, feature_dim=4)
        sizes = sbm_class_sizes(base)
        intra = int((sizes * (sizes - 1) // 2).sum())
        kinds = (("intra", intra, base.p_intra),
                 ("inter", 2000 * 1999 // 2 - intra, base.p_inter))
        z = {kind: [] for kind, _, _ in kinds}
        for seed in range(100):
            g = generate_sbm(dataclasses.replace(base, seed=seed))
            same = np.count_nonzero(g.labels[g.edges[:, 0]] == g.labels[g.edges[:, 1]])
            for (kind, m, p), count in zip(kinds, (same, g.num_edges - same)):
                z[kind].append((count - m * p) / np.sqrt(m * p * (1 - p)))
        for kind, scores in z.items():
            # mean within 3 standard errors, sd within 3.5 of its ~0.07
            assert abs(np.mean(scores)) < 0.3, (kind, np.mean(scores))
            assert 0.75 < np.std(scores, ddof=1) < 1.25, (kind, np.std(scores))

    def test_infeasible_configs(self):
        with pytest.raises(ConfigError):
            SbmConfig(num_classes=5, total_nodes=3, rho=1, p_intra=0.1,
                      p_inter=0.05, feature_dim=5)
        with pytest.raises(ConfigError):
            SbmConfig(num_classes=2, total_nodes=10, rho=2, p_intra=0.1,
                      p_inter=0.5, feature_dim=2)

    # a NaN passes every range check, and generate_sbm never returns on a
    # NaN rho, so each is rejected when the config is built
    @pytest.mark.parametrize("field", ["rho", "feature_std",
                                       "class_mean_separation"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            SbmConfig(**{"num_classes": 2, "total_nodes": 10, "rho": 2,
                         "p_intra": 0.5, "p_inter": 0.1, "feature_dim": 2,
                         field: value})


def test_sbm_pair_inclusion_chi_square():
    # classes of 8 and 4 nodes: each of the 66 pairs is wired in
    # Binomial(2000, p) of 2000 seeded graphs, p_intra inside a class and
    # p_inter across; the standardized squares sum to chi2(66)
    runs = 2000
    counts = np.zeros((12, 12))
    for seed in range(runs):
        g = generate_sbm(SbmConfig(num_classes=2, total_nodes=12, rho=2,
                                   p_intra=0.4, p_inter=0.1, feature_dim=2,
                                   seed=seed))
        counts[g.edges[:, 0], g.edges[:, 1]] += 1
    labels = g.labels
    iu, ju = np.triu_indices(12, k=1)
    p = np.where(labels[iu] == labels[ju], 0.4, 0.1)
    observed, expected = counts[iu, ju], runs * p
    chi2 = float(((observed - expected) ** 2 / (expected * (1 - p))).sum())
    assert np.all(np.tril(counts) == 0)
    assert sps.chi2.sf(chi2, df=observed.size) > 1e-3, chi2


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

    def test_ties_go_to_the_lower_index(self):
        assert largest_remainder([0.5, 0.5, 0.5], 1).tolist() == [1, 0, 0]
        assert largest_remainder([0.5, 0.5, 0.5], 1, caps=[0, 1, 1]).tolist() == [0, 1, 0]

    def test_capped_entries_are_skipped(self):
        # floors clip to [2, 1, 0]; by fraction the order is 2, 0, 1 and
        # entry 0 is at its cap
        out = largest_remainder([2.6, 1.5, 0.9], 5, caps=np.array([2, 5, 5]))
        assert out.tolist() == [2, 2, 1]

    def test_capped_remainder_goes_round_again(self):
        # the clipped floor leaves 3 to place on the two open entries
        out = largest_remainder([3.0, 0.2, 0.1], 4, caps=np.array([1, 3, 3]))
        assert out.tolist() == [1, 2, 1]

    @pytest.mark.parametrize("targets, total, caps", [
        ([2.5, 2.5], 3, None),
        ([2.5, 2.5], 3, [5, 5]),  # the floors alone exceed the total
        ([1.0, 1.0], 3, [1, 1]),  # caps too tight
        ([], 1, None),
    ])
    def test_infeasible(self, targets, total, caps):
        with pytest.raises(ConfigError):
            largest_remainder(targets, total, caps=caps)

    def test_capped_exact_total(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            t = rng.random(5) * 20
            caps = rng.integers(0, 25, size=5)
            total = int(rng.integers(0, caps.sum() + 1))
            if np.minimum(np.floor(t), caps).sum() > total:
                continue
            out = largest_remainder(t, total, caps=caps)
            assert out.sum() == total
            assert np.all(out <= caps)
            assert np.all(out >= np.minimum(np.floor(t), caps))


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

    def test_class_too_small(self):
        g = labeled_graph([30, 3])
        with pytest.raises(ConfigError) as exc:
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

    @pytest.mark.parametrize("split", [
        lambda g: stratified_split(g, 0.5, 0.25, 0, 0),
        lambda g: kfold_splits(g, 2, 0.5, 0.25, 0, 0),
    ], ids=["stratified_split", "kfold_splits"])
    def test_no_labeled_node_is_a_data_error(self, split):
        # labels present but all -1: a data error, not a division by zero
        unlabeled = dataclasses.replace(small_graph(), labels=np.full(3, -1))
        with pytest.raises(DataError, match="needs labeled nodes"):
            split(unlabeled)
        with pytest.raises(DataError, match="needs labeled nodes"):
            split(small_graph(labeled=False))


class TestKfold:
    def test_five_folds_ratio(self):
        g = labeled_graph([500, 500])
        folds = kfold_splits(g, 5, 0.1, 0.1, 5, seed=3)
        assert len(folds) == 5
        for s in folds:
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


def loop_structural_noise(graph, spec):
    """inject_noise's structural kind one candidate pair at a time: the same
    batches of draws, each ordered pair accepted in draw order when it is
    no self-loop and new, into a set of taken pairs."""
    rng = np.random.default_rng(spec.seed)
    m, n = graph.num_edges, graph.num_nodes
    k = int(round(spec.level * m))
    total_pairs = n * (n - 1) // 2
    chosen = rng.choice(m, size=k, replace=False)
    taken = {(int(u), int(v)) for u, v in graph.edges}
    added = []
    while len(added) < k:
        need = k - len(added)
        free = total_pairs - len(taken)
        batch = need * n * total_pairs // ((n - 1) * free) * 5 // 4 + 64
        u, v = rng.integers(0, n, size=(2, batch))
        for a, b in zip(u.tolist(), v.tolist()):
            pair = (min(a, b), max(a, b))
            if len(added) < k and a != b and pair not in taken:
                taken.add(pair)
                added.append(pair)
    kept = np.delete(graph.edges, chosen, axis=0)
    return dataclasses.replace(graph, edges=np.concatenate([kept, added]))


class TestNoise:
    def test_structural_rewiring_invariants(self):
        # k = round(level * |E|) edges leave and k distinct pairs u < v that
        # were no edge take their place, so |E| holds, as the one-pair-at-a-
        # time loop gives them; a near-complete graph with fewer than k
        # absent pairs is a config error
        graphs = [
            generate_sbm(SbmConfig(num_classes=2, total_nodes=n, rho=1,
                                   p_intra=p, p_inter=p, feature_dim=2, seed=s))
            for n, p, s in ((50, 0.16, 6), (40, 0.05, 1), (20, 0.9, 2))
        ]
        outcomes = set()
        for g in graphs:
            n, m = g.num_nodes, g.num_edges
            original = {tuple(e) for e in g.edges.tolist()}
            for level in (0.05, 0.2, 0.5, 0.8, 1.0):
                k = round(level * m)
                for seed in range(5):
                    spec = NoiseSpec("structural", level, seed=seed)
                    if n * (n - 1) // 2 - m < k:
                        with pytest.raises(ConfigError, match="not enough absent pairs"):
                            inject_noise(g, spec)
                        outcomes.add("error")
                        continue
                    got = inject_noise(g, spec)
                    assert got.edges.dtype == np.int64
                    assert got.num_edges == m
                    assert np.all(got.edges[:, 0] < got.edges[:, 1])
                    new = {tuple(e) for e in got.edges.tolist()}
                    assert len(new) == m
                    assert len(new - original) == k and len(original - new) == k
                    np.testing.assert_array_equal(
                        got.edges, loop_structural_noise(g, spec).edges)
                    outcomes.add("rewired")
        assert outcomes == {"error", "rewired"}

    def test_structural_pairs_uniform_over_absent_pairs(self):
        # one rewired edge of a 6-node path: the new pair is uniform over the
        # 10 pairs that are no edge; each count within 5 binomial sigma
        g = Graph(num_nodes=6, features=np.zeros((6, 1)),
                  edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        original = {tuple(e) for e in g.edges.tolist()}
        draws = 4000
        counts = {}
        for seed in range(draws):
            noisy = inject_noise(g, NoiseSpec("structural", 0.2, seed=seed))
            (pair,) = {tuple(e) for e in noisy.edges.tolist()} - original
            counts[pair] = counts.get(pair, 0) + 1
        assert len(counts) == 10 and not set(counts) & original
        p = 1 / 10
        sigma = np.sqrt(draws * p * (1 - p))
        for pair, count in counts.items():
            assert abs(count - draws * p) < 5 * sigma, (pair, count)

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
