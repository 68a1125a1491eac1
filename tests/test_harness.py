import json

import numpy as np
import pytest

from neubm.calibrate import CalibrationSpec
from neubm.datasets import SbmConfig, generate_sbm, stratified_split
from neubm.errors import ConfigError, NumericError
from neubm.harness import (
    ExperimentConfig,
    NoiseSweep,
    ProtocolConfig,
    aggregate_records,
    emit_report,
    load_experiment_config,
    read_records,
    run_ablations,
    run_experiment,
    run_sensitivity,
)
from neubm.models import ModelConfig
from neubm.neutral import NeutralConfig
from neubm.training import TrainConfig, train


def small_config(tmp_path, name="exp", **overrides):
    defaults = dict(
        dataset=SbmConfig(
            num_classes=3, total_nodes=240, rho=4, p_intra=0.1, p_inter=0.01,
            feature_dim=6, class_mean_separation=1.5, feature_std=1.0, seed=5,
        ),
        model={"architecture": "gcn", "hidden_dim": 12, "dropout": 0.2},
        train=TrainConfig(learning_rate=0.01, max_epochs=40, patience=40, seed=1),
        calibration=(CalibrationSpec("none"), CalibrationSpec("subtract")),
        protocol=ProtocolConfig(num_seeds=2, k_folds=1, train_frac=0.15,
                                val_frac=0.15, min_per_class=3),
        output_dir=str(tmp_path / name),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_single_run_zero_std(self, tmp_path):
        cfg = small_config(
            tmp_path,
            protocol=ProtocolConfig(num_seeds=1, k_folds=1, train_frac=0.15,
                                    val_frac=0.15, min_per_class=3),
            calibration=(CalibrationSpec("none"),),
        )
        agg = run_experiment(cfg)
        assert len(agg) == 1
        assert agg[0]["n_runs"] == 1
        assert agg[0]["metrics"]["f1_macro"]["std"] == 0.0

    def test_specs_share_training(self, tmp_path):
        cfg = small_config(tmp_path)
        run_experiment(cfg)
        records = read_records(tmp_path / "exp" / "records.jsonl")
        by_run = {}
        for r in records:
            by_run.setdefault((r["seed"], r["fold_id"]), []).append(r)
        for runs in by_run.values():
            assert len(runs) == 2  # none + subtract
            summaries = {json.dumps(r["train_summary"], sort_keys=True) for r in runs}
            assert len(summaries) == 1  # same trained model reused post hoc

    def test_record_keys_unique(self, tmp_path):
        cfg = small_config(tmp_path)
        run_experiment(cfg)
        records = read_records(tmp_path / "exp" / "records.jsonl")
        keys = [
            (r["seed"], r["fold_id"], r["group"], r["row_id"],
             r["sweep_variable"], r["sweep_value"])
            for r in records
        ]
        assert len(set(keys)) == len(keys)

    def test_idempotent_rerun(self, tmp_path):
        cfg = small_config(tmp_path)
        run_experiment(cfg)
        before = (tmp_path / "exp" / "records.jsonl").read_bytes()
        run_experiment(cfg)  # completed: must not recompute
        assert (tmp_path / "exp" / "records.jsonl").read_bytes() == before

    def test_reports_byte_identical_across_dirs(self, tmp_path):
        cfg_a = small_config(tmp_path, name="a")
        cfg_b = small_config(tmp_path, name="b")
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for fname in ("aggregate.json", "results.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == (
                tmp_path / "b" / fname
            ).read_bytes()

    def test_aggregate_matches_independent_recomputation(self, tmp_path):
        cfg = small_config(tmp_path)
        agg = run_experiment(cfg)
        records = read_records(tmp_path / "exp" / "records.jsonl")
        for row in agg:
            values = [
                r["metrics"]["f1_macro"] for r in records
                if r["row_id"] == row["row_id"] and r["status"] == "ok"
            ]
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            assert row["metrics"]["f1_macro"]["mean"] == pytest.approx(mean, abs=1e-12)
            assert row["metrics"]["f1_macro"]["std"] == pytest.approx(
                var ** 0.5, abs=1e-12
            )

    def test_formatted_mean_std_style(self, tmp_path):
        cfg = small_config(tmp_path)
        agg = run_experiment(cfg)
        fmt = agg[0]["metrics"]["f1_macro"]["formatted"]
        assert " ± " in fmt
        mean_part, std_part = fmt.split(" ± ")
        float(mean_part), float(std_part)

    def test_output_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NEUBM_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = small_config(tmp_path, output_dir="relative_exp")
        run_experiment(cfg)
        assert (tmp_path / "root" / "relative_exp" / "aggregate.json").exists()

    def test_config_hash_excludes_output_dir(self, tmp_path):
        a = small_config(tmp_path, name="x")
        b = small_config(tmp_path, name="y")
        assert a.config_hash() == b.config_hash()

    def test_config_hash_pinned(self, tmp_path):
        """Every section feeds the hash; its value must not drift, or
        completed output dirs and saved reports stop matching."""
        cfg = small_config(
            tmp_path,
            neutral=NeutralConfig(covariance_mode="diagonal", refresh_every=3,
                                  seed=4),
            calibration=(
                CalibrationSpec("none"),
                CalibrationSpec("scale", lam=1.25),
                CalibrationSpec("subtract", "post_softmax"),
            ),
            noise=NoiseSweep("feature", (0.0, 0.2), seed=3),
            rho_sweep=(2.0, 4.0),
        )
        assert cfg.config_hash() == "e4ccb435879bd956"


class TestAblations:
    def test_rows_and_identities(self, tmp_path):
        cfg = small_config(tmp_path, name="abl")
        agg = run_ablations(cfg)
        by_id = {(r["group"], r["row_id"]): r for r in agg}
        # lambda grid: 5 labeled rows; lambda=1 equals subtract exactly
        lam_rows = [k for k in by_id if k[1].startswith("cal=scale(")]
        assert len(lam_rows) == 5
        assert by_id[("calibration_variant", "cal=scale(1)")]["metrics"] == (
            by_id[("calibration_variant", "cal=subtract")]["metrics"]
        )
        # zero-reference row equals the uncalibrated row
        assert by_id[("neutral_construction", "neutral=none")]["metrics"] == (
            by_id[("calibration_variant", "cal=none")]["metrics"]
        )
        # three construction rows with mean +/- std
        for nv in ("mean_cov", "random", "class_balanced"):
            row = by_id[("neutral_construction", f"neutral={nv}")]
            assert row["metrics"]["f1_macro"]["formatted"]
        assert ("position", "pos=logits") in by_id
        assert ("position", "pos=post_softmax") in by_id

    def test_completed_dir_of_another_command_runs_afresh(self, tmp_path):
        cfg = small_config(tmp_path)
        run_experiment(cfg)
        agg = run_ablations(cfg)  # same config and dir, another command
        assert len(agg) == 14
        assert {r["group"] for r in agg} == {
            "calibration_variant", "neutral_construction", "position",
        }
        saved = json.loads((tmp_path / "exp" / "config.json").read_text())
        assert saved["command"] == "ablate"
        records = tmp_path / "exp" / "records.jsonl"
        before = records.read_bytes()
        assert run_ablations(cfg) == agg  # completed by ablate: a no-op
        assert records.read_bytes() == before


class TestSensitivity:
    def test_noise_level_zero_equals_baseline(self, tmp_path):
        sweep = NoiseSweep(kind="feature", levels=(0.0, 0.4), seed=3)
        cfg = small_config(tmp_path, name="noise", noise=sweep)
        agg = run_sensitivity(cfg)
        base_cfg = small_config(tmp_path, name="noise_base")
        base = run_experiment(base_cfg)
        zero = [r for r in agg if r["sweep_value"] == 0.0]
        for row in zero:
            match = next(r for r in base if r["row_id"] == row["row_id"])
            assert row["metrics"] == match["metrics"]

    def test_rho_sweep_regenerates_data(self, tmp_path):
        cfg = small_config(tmp_path, name="rho", rho_sweep=(1.0, 4.0))
        agg = run_sensitivity(cfg)
        assert sorted({r["sweep_value"] for r in agg}) == [1.0, 4.0]
        svg = tmp_path / "rho" / "sweep_rho.svg"
        assert svg.exists() and svg.read_text().startswith("<svg")

    def test_requires_a_sweep(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sensitivity(small_config(tmp_path, name="nosweep"))

    def test_balanced_data_shrinks_the_calibration_gap(self, tmp_path):
        # on rho=1 the reference has little bias to remove; the f1 gap
        # should be clearly smaller than under heavy imbalance
        cfg = small_config(
            tmp_path, name="gap",
            dataset=SbmConfig(
                num_classes=3, total_nodes=600, rho=8, p_intra=0.03,
                p_inter=0.009, feature_dim=6, class_mean_separation=0.8,
                feature_std=1.0, seed=3,
            ),
            train=TrainConfig(learning_rate=0.01, max_epochs=80, patience=80,
                              seed=0),
            protocol=ProtocolConfig(num_seeds=3, k_folds=1, train_frac=0.1,
                                    val_frac=0.1, min_per_class=3),
            rho_sweep=(1.0, 8.0),
        )
        agg = run_sensitivity(cfg)

        def gap(rho):
            none = next(r for r in agg if r["sweep_value"] == rho
                        and r["row_id"] == "none@logits")
            sub = next(r for r in agg if r["sweep_value"] == rho
                       and r["row_id"] == "subtract@logits")
            return (sub["metrics"]["f1_macro"]["mean"]
                    - none["metrics"]["f1_macro"]["mean"])

        assert gap(1.0) < gap(8.0)


class TestBiasDiagnostics:
    def test_ordering_violation_fatal_only_for_subtract(self):
        # normalize rescales by 1/std(vec), so its per-class shift picks up a
        # data-dependent term and may legitimately violate the ordering; the
        # harness must record that, not fail the row
        from neubm.calibrate import calibrate
        from neubm.harness import _bias_diagnostics
        from neubm.training import softmax

        rng = np.random.default_rng(0)
        logits = np.array([[5.0, 0.0]]) + 0.01 * rng.normal(size=(40, 2))
        vec = np.array([1.0, 0.0])
        labels = rng.integers(0, 2, size=40)
        mask = np.ones(40, dtype=bool)

        spec = CalibrationSpec("normalize")
        out = calibrate(logits, vec, spec)
        bias = _bias_diagnostics(
            logits, softmax(logits), out, vec, labels, mask, 0, spec, {}
        )
        assert bias["min_shift_exceeds_maj"] is False  # informational only

        spec = CalibrationSpec("subtract")
        out = calibrate(logits, vec, spec)
        bias = _bias_diagnostics(
            logits, softmax(logits), out, vec, labels, mask, 0, spec, {}
        )
        assert bias["min_shift_exceeds_maj"] is True  # guaranteed by algebra


class TestEmitReport:
    def test_empty_results_valid_files(self, tmp_path):
        written = emit_report([], tmp_path / "empty")
        payload = json.loads(written["json"].read_text())
        assert payload["aggregates"] == []
        lines = written["csv"].read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("group,")

    def test_training_failure_recorded_not_fatal(self, tmp_path):
        # a diverging learning rate fails every run but the sweep completes
        cfg = small_config(
            tmp_path, name="diverge",
            train=TrainConfig(learning_rate=1e200, max_epochs=5, patience=5,
                              seed=0),
            protocol=ProtocolConfig(num_seeds=1, k_folds=1, train_frac=0.15,
                                    val_frac=0.15, min_per_class=3),
        )
        with np.errstate(invalid="ignore", over="ignore"):
            agg = run_experiment(cfg)
        assert all(row["incomplete"] for row in agg)
        records = read_records(tmp_path / "diverge" / "records.jsonl")
        assert all(r["status"] == "failed" for r in records)
        assert all("TrainingFailureError" in r["error"] for r in records)

    def test_failed_runs_marked_incomplete(self):
        ok = {
            "group": "g", "sweep_variable": None, "sweep_value": None,
            "row_id": "r", "status": "ok",
            "metrics": {"f1_macro": 0.5, "f1_weighted": 0.5, "f1_micro": 0.5,
                        "accuracy": 0.5},
            "bias": None,
        }
        failed = dict(ok, status="failed", metrics=None)
        agg = aggregate_records([ok, failed])
        assert agg[0]["incomplete"] is True
        assert agg[0]["n_completed"] == 1
        assert agg[0]["metrics"]["f1_macro"]["mean"] == 0.5


class TestConfigLoading:
    def test_json_round_trip(self, tmp_path):
        payload = {
            "dataset": {"num_classes": 3, "total_nodes": 120, "rho": 2,
                        "p_intra": 0.2, "p_inter": 0.02, "feature_dim": 4,
                        "seed": 1},
            "model": {"architecture": "gcn", "hidden_dim": 8},
            "train": {"learning_rate": 0.005, "max_epochs": 20, "patience": 20},
            "calibration": [{"variant": "subtract", "position": "logits"}],
            "protocol": {"num_seeds": 1, "k_folds": 1, "train_frac": 0.2,
                         "val_frac": 0.2, "min_per_class": 2},
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        cfg = load_experiment_config(path)
        assert isinstance(cfg.dataset, SbmConfig)
        assert cfg.calibration[0].spec_id == "subtract@logits"
        assert cfg.protocol.num_seeds == 1

    def test_missing_dataset_rejected(self):
        with pytest.raises(ConfigError):
            load_experiment_config({"model": {}})

    def test_to_dict_round_trips(self, tmp_path):
        cfg = small_config(
            tmp_path,
            calibration=(CalibrationSpec("none"),
                         CalibrationSpec("scale", "post_softmax", lam=0.5)),
            neutral=NeutralConfig(construction_variant="random", refresh_every=3),
            noise=NoiseSweep(kind="feature", levels=(0.0, 0.5), seed=2),
            rho_sweep=(2.0, 4.0),
        )
        assert load_experiment_config(cfg.to_dict()) == cfg
        assert load_experiment_config(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize("raw, key", [
        ({"dataset": "data", "trian": {"max_epochs": 5}}, "'trian'"),
        ({"dataset": "data",
          "calibration": [{"variant": "subtract", "positon": "post_softmax"}]},
         "'positon'"),
    ], ids=["top_level", "calibration_spec"])
    def test_unknown_key_rejected(self, raw, key):
        with pytest.raises(ConfigError, match=key):
            load_experiment_config(raw)


class TestTimingScaling:
    def test_wall_time_grows_at_most_linearly(self):
        # fixed epoch count; factor-3 slack on the per-node time ratio
        times = {}
        for n in (200, 800):
            g = generate_sbm(SbmConfig(
                num_classes=2, total_nodes=n, rho=2, p_intra=0.1, p_inter=0.01,
                feature_dim=8, class_mean_separation=2.0, seed=1,
            ))
            split = stratified_split(g, 0.2, 0.2, 2, seed=0)
            best = np.inf
            for _ in range(3):  # min over repeats to damp scheduler noise
                _, report = train(
                    g, split,
                    ModelConfig("gcn", 8, 16, 2, dropout=0.0, seed=0),
                    TrainConfig(max_epochs=30, patience=30, seed=0),
                )
                best = min(best, report.wall_time_seconds)
            times[n] = best
        assert times[800] / times[200] <= 3.0 * (800 / 200)


class TestRefreshHook:
    def test_refresh_trains_deterministically(self, tmp_path):
        from dataclasses import replace

        from neubm.neutral import NeutralConfig

        cfg = small_config(tmp_path, name="refresh",
                           neutral=NeutralConfig(refresh_every=5, seed=2),
                           protocol=ProtocolConfig(num_seeds=1, k_folds=1,
                                                   train_frac=0.15, val_frac=0.15,
                                                   min_per_class=3))
        agg1 = run_experiment(cfg)
        cfg2 = replace(cfg, output_dir=str(tmp_path / "refresh2"))
        agg2 = run_experiment(cfg2)
        assert agg1 == agg2


class TestPostHocLeakage:
    def test_test_labels_leave_neutral_vectors_unchanged(self, tmp_path):
        from neubm.graph import Graph
        from neubm.harness import _run_single, ablation_rows
        from neubm.neutral import NeutralConfig

        # the refresh hook draws class_balanced rows during model selection
        cfg = small_config(
            tmp_path,
            neutral=NeutralConfig(construction_variant="class_balanced",
                                  refresh_every=5, seed=3),
        )
        graph = generate_sbm(cfg.dataset)
        fold = stratified_split(graph, 0.15, 0.15, 3, seed=0)
        labels = graph.labels.copy()
        labels[fold.test] = np.random.default_rng(0).permutation(labels[fold.test])
        assert not np.array_equal(labels, graph.labels)
        permuted = Graph(num_nodes=graph.num_nodes, features=graph.features,
                         edges=graph.edges, labels=labels,
                         num_classes=graph.num_classes)

        def neutral_vectors(g):
            records = _run_single(g, cfg, ablation_rows(), 0, fold, None, None, "h")
            assert all(r.status == "ok" for r in records)
            return {r.row_id: r.bias["neutral_vector"] for r in records}

        assert neutral_vectors(permuted) == neutral_vectors(graph)


def _spy(monkeypatch, module, name, seen):
    """Replace module.name with a wrapper that records (args, result)."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append((args, result))
        return result

    monkeypatch.setattr(module, name, wrapper)


class TestRunRecords:
    def _graph_and_fold(self, tmp_path):
        cfg = small_config(tmp_path)
        graph = generate_sbm(cfg.dataset)
        return cfg, graph, stratified_split(graph, 0.15, 0.15, 3, seed=0)

    def test_mmd_computed_once_per_distinct_samples(self, tmp_path, monkeypatch):
        # the rows of one (seed, fold) share a memo keyed by the compared
        # samples: one mmd_rbf call per distinct pair of sample sets, and
        # every reported value equals a direct call on that row's samples
        import neubm.harness as harness
        from neubm.metrics import mmd_rbf
        from neubm.training import softmax

        cfg, graph, fold = self._graph_and_fold(tmp_path)
        test_mask = fold.to_masks(graph.num_nodes)["test"]
        counts = np.bincount(graph.labels[test_mask])
        mmd_calls, logits_seen, outputs = [], [], []
        _spy(monkeypatch, harness, "mmd_rbf", mmd_calls)
        _spy(monkeypatch, harness, "predict_logits", logits_seen)
        _spy(monkeypatch, harness, "calibrate", outputs)

        def key(pair):
            return tuple(a.tobytes() for a in pair)

        for run_index in (0, 1):
            mmd_calls.clear()
            outputs.clear()
            records = harness._run_single(graph, cfg, harness.ablation_rows(),
                                          run_index, fold, None, None, "h")
            assert all(r.status == "ok" for r in records)
            assert all("mmd_prob_before" not in r.bias
                       for r in records if r.spec["variant"] == "none")
            calibrated = [(r, out) for r, (_, out) in zip(records, outputs)
                          if r.spec["variant"] != "none"]
            assert 0 < len(calibrated) < len(records)

            (c1, c2), = {tuple(r.bias["mmd_classes"]) for r, _ in calibrated}
            assert counts[c1] >= counts[c2] >= np.delete(counts, [c1, c2]).max()

            def samples(probs):
                return [probs[np.flatnonzero(test_mask & (graph.labels == c))
                              [:harness.MMD_DIAG_MAX_ROWS]] for c in (c1, c2)]

            before = samples(softmax(logits_seen[-1][1]))
            distinct = {key(before)}
            for r, out in calibrated:
                after = samples(out.probabilities)
                distinct.add(key(after))
                assert r.bias["mmd_prob_before"] == mmd_rbf(*before)
                assert r.bias["mmd_prob_after"] == mmd_rbf(*after)
            assert sorted(key(args) for args, _ in mmd_calls) == sorted(distinct)
            # cal=scale(1) and neutral=none repeat other rows' probabilities
            assert len(mmd_calls) < 1 + len(calibrated)

    def test_no_mmd_when_every_row_is_uncalibrated(self, tmp_path, monkeypatch):
        import neubm.harness as harness

        cfg, graph, fold = self._graph_and_fold(tmp_path)
        rows = [r for r in harness.ablation_rows() if r.spec.variant == "none"]
        mmd_calls = []
        _spy(monkeypatch, harness, "mmd_rbf", mmd_calls)
        records = harness._run_single(graph, cfg, rows, 0, fold, None, None, "h")
        assert records and all(r.status == "ok" for r in records)
        assert mmd_calls == []

    def test_failed_mmd_before_is_not_cached(self, tmp_path, monkeypatch):
        import neubm.harness as harness

        cfg, graph, fold = self._graph_and_fold(tmp_path)
        calls = []
        original = harness.mmd_rbf

        def fails_first(*args):
            calls.append(args)
            if len(calls) == 1:
                raise NumericError("MMD is not finite")
            return original(*args)

        monkeypatch.setattr(harness, "mmd_rbf", fails_first)
        records = harness._run_single(graph, cfg, harness.ablation_rows(),
                                      0, fold, None, None, "h")
        calibrated = [r for r in records if r.spec["variant"] != "none"]
        assert calibrated[0].status == "failed"
        assert "NumericError" in calibrated[0].error
        assert all(r.status == "ok" for r in calibrated[1:])
        assert all("mmd_prob_before" in r.bias for r in calibrated[1:])

    def test_train_summary_reports_curves(self, tmp_path, monkeypatch):
        import neubm.harness as harness

        cfg, graph, fold = self._graph_and_fold(tmp_path)
        trained = []
        _spy(monkeypatch, harness, "train", trained)
        records = harness._run_single(graph, cfg, harness.default_rows(cfg.calibration),
                                      0, fold, None, None, "h")
        (_, (_, report)), = trained
        assert len(report.val_metric_curve) == report.epochs_run + 1
        for r in records:
            summary = r.train_summary
            assert summary["final_loss"] == report.loss_curve[-1]
            assert summary["best_val_metric"] == max(report.val_metric_curve)
            assert summary["best_val_metric"] == (
                report.val_metric_curve[summary["best_epoch"]])

    def test_neutral_fidelity_per_constructed_variant(self, tmp_path, monkeypatch):
        import neubm.harness as harness
        from neubm.neutral import neutral_fidelity

        cfg, graph, fold = self._graph_and_fold(tmp_path)
        built = []
        _spy(monkeypatch, harness, "construct_neutral", built)
        rows = harness.ablation_rows()
        records = harness._run_single(graph, cfg, rows, 0, fold, None, None, "h")
        expected = {
            neutral.config.construction_variant: neutral_fidelity(neutral)
            for _, neutral in built
        }
        assert sorted(expected) == ["class_balanced", "mean_cov", "random"]
        for row, record in zip(rows, records):
            if row.neutral_variant is None:
                assert record.neutral_fidelity is None
                continue
            fid = record.neutral_fidelity
            assert fid == expected[row.neutral_variant]
            assert fid["variant"] == row.neutral_variant
            assert fid["target_density"] == pytest.approx(
                graph.num_edges / (graph.num_nodes * (graph.num_nodes - 1) / 2))
            assert abs(fid["realized_density"] / fid["target_density"] - 1) < 0.5
            assert fid["max_abs_mean_error"] >= 0.0

    def test_neutral_fidelity_stays_out_of_reports(self, tmp_path):
        cfg = small_config(
            tmp_path,
            protocol=ProtocolConfig(num_seeds=1, k_folds=1, train_frac=0.15,
                                    val_frac=0.15, min_per_class=3),
        )
        run_experiment(cfg)
        out = tmp_path / "exp"
        records = read_records(out / "records.jsonl")
        by_row = {r["row_id"]: r["neutral_fidelity"] for r in records}
        assert by_row["none@logits"] is None
        assert by_row["subtract@logits"]["variant"] == "mean_cov"
        for name in ("aggregate.json", "results.csv"):
            assert "fidelity" not in (out / name).read_text()
