import json
import re
from dataclasses import replace

import numpy as np
import pytest

from neubm.calibrate import CalibrationSpec
from neubm.datasets import (
    NoiseSpec,
    SbmConfig,
    generate_sbm,
    save_canonical,
    stratified_split,
)
from neubm.errors import ConfigError, NumericError
from neubm.harness import (
    ExperimentConfig,
    NoiseSweep,
    ProtocolConfig,
    aggregate_records,
    load_dataset_config,
    load_experiment_config,
    read_records,
    run_ablations,
    run_experiment,
    write_run,
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


# the example config of the README's "Experiment configs" section
README_CONFIG = {
    "dataset": {"num_classes": 5, "total_nodes": 2000, "rho": 10,
                "p_intra": 0.02, "p_inter": 0.006, "feature_dim": 16,
                "class_mean_separation": 0.8, "feature_std": 1.0, "seed": 7},
    "model": {"architecture": "gcn", "hidden_dim": 32, "dropout": 0.5},
    "train": {"learning_rate": 0.01, "weight_decay": 0.0005,
              "max_epochs": 150, "patience": 40, "seed": 0},
    "neutral": {"construction_variant": "mean_cov", "covariance_mode": "full",
                "refresh_every": "never", "seed": 0},
    "calibration": [{"variant": "none"}, {"variant": "subtract"}],
    "protocol": {"num_seeds": 5, "k_folds": 5, "train_frac": 0.1,
                 "val_frac": 0.1, "min_per_class": 5},
    "noise": {"kind": "feature", "levels": [0.0, 0.1, 0.2, 0.4], "seed": 0},
    "rho_sweep": [1, 5, 10, 25],
    "output_dir": "runs/demo",
}


def workload_config(architecture, model_seeds, epochs, learning_rate):
    """The config of a 2,000-node benchmark workload (bench/workloads.py) at
    dataset seed 2024."""
    return {
        "dataset": {"num_classes": 5, "total_nodes": 2000, "rho": 10,
                    "p_intra": 0.02, "p_inter": 0.006,
                    "feature_dim": 16, "class_mean_separation": 0.8,
                    "feature_std": 1.0, "seed": 2024},
        "model": {"architecture": architecture, "hidden_dim": 32, "dropout": 0.5},
        "train": {"learning_rate": learning_rate, "weight_decay": 5e-4,
                  "max_epochs": epochs, "patience": epochs, "seed": 0},
        "calibration": [{"variant": "none"}, {"variant": "subtract"}],
        "protocol": {"num_seeds": model_seeds, "k_folds": 1},
        "output_dir": "out",
    }


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

    def test_canonical_directory_gives_the_generator_aggregates(self, tmp_path):
        # a generated graph saved as a canonical directory, named by its
        # path, runs as the generator config it came from
        generated = small_config(
            tmp_path, name="generated",
            dataset=SbmConfig(num_classes=3, total_nodes=120, rho=2, p_intra=0.2,
                              p_inter=0.02, feature_dim=4, seed=1),
            train=TrainConfig(max_epochs=10, patience=10, seed=1),
            protocol=ProtocolConfig(num_seeds=2, k_folds=2, train_frac=0.15,
                                    val_frac=0.15, min_per_class=3),
        )
        save_canonical(generate_sbm(generated.dataset), tmp_path / "data")
        loaded = replace(generated, dataset=str(tmp_path / "data"),
                         output_dir=str(tmp_path / "loaded"))
        assert run_experiment(loaded) == run_experiment(generated)
        reports = [json.loads((tmp_path / name / "aggregate.json").read_text())
                   for name in ("generated", "loaded")]
        for report in reports:  # the hash covers the dataset field as given
            del report["metadata"]["config_hash"]
        assert reports[0] == reports[1]

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

    def test_seed_derivation_states_the_seeds_drawn(self, tmp_path, monkeypatch):
        # the rule every aggregate.json states, read from the text and
        # evaluated for each record of a 2-seed x 2-fold refresh experiment
        from types import SimpleNamespace

        import neubm.harness as harness
        import neubm.training as training

        cfg = small_config(
            tmp_path,
            train=TrainConfig(learning_rate=0.01, max_epochs=3, patience=3, seed=5),
            neutral=NeutralConfig(refresh_every=2, seed=3),
            protocol=ProtocolConfig(num_seeds=2, k_folds=2, train_frac=0.15,
                                    val_frac=0.15, min_per_class=3),
        )
        built = []
        _spy(monkeypatch, harness, "construct_neutral", built)
        masks = []  # the dropout seed of every training step
        step = training.loss_and_gradients

        def spy_step(*args, **kwargs):
            masks.append(kwargs["dropout_seed"])
            return step(*args, **kwargs)

        monkeypatch.setattr(training, "loss_and_gradients", spy_step)
        run_experiment(cfg)
        aggregate = json.loads((tmp_path / "exp" / "aggregate.json").read_text())
        text = aggregate["metadata"]["decisions"]["seed_derivation"]
        rules = [rule.split("=") for rule in text.split(": ", 1)[1].split("; ")]
        assert [name for name, _ in rules] == [
            "split", "run", "model", "dropout", "mask", "neutral", "refresh"]

        def derive(record, block, epoch=1):
            names = {"train": SimpleNamespace(seed=5),
                     "neutral": SimpleNamespace(seed=3),
                     "f": record["fold_id"], "i": record["seed"], "b": block,
                     "e": epoch}
            for name, expr in rules:
                names[name] = eval(expr, {"__builtins__": {}}, names)
            return {name: names[name] for name, _ in rules}

        records = read_records(tmp_path / "exp" / "records.jsonl")
        assert len(records) == 8
        drawn = []  # every neutral seed the rule gives, per (run, fold)
        stepped = []  # every dropout seed it gives, per (run, fold) and epoch
        for r in records:
            derived = derive(r, 0)
            assert r["derived_seeds"] == {k: derived[k] for k in r["derived_seeds"]}
            assert sorted(r["derived_seeds"]) == sorted(set(derived) - {"mask", "refresh"})
            if r["row_id"] == "subtract@logits":
                epochs = r["train_summary"]["epochs_run"]
                blocks = epochs // 2 + 1
                drawn += [derive(r, b)["refresh"] for b in range(blocks)]
                drawn.append(derived["neutral"])  # the post-hoc reference
                stepped += [derive(r, 0, e)["mask"] for e in range(1, epochs + 1)]
        assert sorted(n.config.seed for _, n in built) == sorted(drawn)
        assert sorted(masks) == sorted(stepped) and len(masks) == 4 * 3

    def test_recorded_split_seed_redraws_the_fold(self, tmp_path, monkeypatch):
        # 2 seeds x 2 folds: every run of fold f trains on the split drawn
        # with train.seed + f, and its records must name that seed and the
        # others the seed rule derives
        import neubm.harness as harness

        cfg = small_config(
            tmp_path,
            train=TrainConfig(learning_rate=0.01, max_epochs=3, patience=3, seed=5),
            neutral=NeutralConfig(seed=3),
            protocol=ProtocolConfig(num_seeds=2, k_folds=2, train_frac=0.15,
                                    val_frac=0.15, min_per_class=3),
        )
        runs = []
        _spy(monkeypatch, harness, "_run_single", runs)
        run_experiment(cfg)
        folds = {(args[3], args[4]): args[5] for args, _ in runs}
        assert len(folds) == 4
        graph = generate_sbm(cfg.dataset)
        records = read_records(tmp_path / "exp" / "records.jsonl")
        for r in records:
            seed = r["derived_seeds"]["split"]
            drawn = stratified_split(graph, 0.15, 0.15, 3, seed=seed)
            fold = folds[(r["seed"], r["fold_id"])]
            for part in ("train", "val", "test"):
                np.testing.assert_array_equal(getattr(drawn, part),
                                              getattr(fold, part))
        for r in records:
            seeds = r["derived_seeds"]
            assert seeds["run"] == 5 + r["seed"] + 1000 * r["fold_id"]
            assert seeds["model"] == seeds["run"] + 17
            assert seeds["dropout"] == seeds["run"] + 29
            assert seeds["neutral"] == cfg.neutral.seed + seeds["run"]

    def test_rerun_recomputes(self, tmp_path, monkeypatch):
        # a rerun into a completed directory computes afresh: the same code
        # rewrites the same reports byte for byte, and a change that moves
        # the numbers shows in them, never the saved aggregates
        import neubm.harness as harness

        cfg = small_config(tmp_path)
        reports = [tmp_path / "exp" / f for f in ("aggregate.json", "results.csv")]
        agg = run_experiment(cfg)
        before = [path.read_bytes() for path in reports]
        assert run_experiment(cfg) == agg
        assert [path.read_bytes() for path in reports] == before
        calibrate = harness.calibrate
        monkeypatch.setattr(harness, "calibrate", lambda logits, vec, spec:
                            calibrate(logits, 2 * vec, spec))
        moved = run_experiment(cfg)
        f1 = {r["row_id"]: r["metrics"]["f1_macro"]["mean"] for r in agg}
        assert {r["row_id"]: r["metrics"]["f1_macro"]["mean"]
                for r in moved} != f1
        assert [path.read_bytes() for path in reports] != before

    def test_rerun_under_changed_conventions_runs_afresh(self, tmp_path,
                                                         monkeypatch):
        # the conventions aggregate.json states are part of what a completed
        # directory recorded: a rerun without force must not keep stale text
        import neubm.harness as harness

        cfg = small_config(
            tmp_path,
            train=TrainConfig(learning_rate=0.01, max_epochs=3, patience=3, seed=1),
            protocol=ProtocolConfig(num_seeds=1, k_folds=1, train_frac=0.15,
                                    val_frac=0.15, min_per_class=3),
        )
        run_experiment(cfg)
        decisions = {**harness.RUN_METADATA, "seed_derivation": "changed"}
        monkeypatch.setattr(harness, "RUN_METADATA", decisions)
        run_experiment(cfg)
        aggregate = json.loads((tmp_path / "exp" / "aggregate.json").read_text())
        assert aggregate["metadata"]["decisions"] == decisions
        saved = json.loads((tmp_path / "exp" / "config.json").read_text())
        assert saved["decisions"] == decisions

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

    @pytest.mark.parametrize("raw, expected", [
        (README_CONFIG, "6f471ce20d8aab08"),
        (workload_config("gcn", 3, 150, 0.01), "33707bbcf7364453"),
        (workload_config("gat", 1, 8, 0.05), "c00113754e650df2"),
    ], ids=["readme_example", "ablate_gcn_2k", "experiment_gat_2k"])
    def test_loaded_config_hash_pinned(self, tmp_path, raw, expected):
        """The hash of a config file as loaded: a loader that turned the
        JSON int 10 into 10.0, say, would move it."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert load_experiment_config(path).config_hash() == expected


class TestAblations:
    @pytest.mark.parametrize("architecture", ["gcn", "gat"])
    def test_rows_and_identities(self, tmp_path, architecture):
        cfg = small_config(tmp_path, name="abl",
                           model={"architecture": architecture, "hidden_dim": 12,
                                  "dropout": 0.2})
        agg = run_ablations(cfg)
        by_id = {(r["group"], r["row_id"]): r for r in agg}
        # three labels of one calibration: subtract@logits against mean_cov
        cells = [{k: v for k, v in by_id[key].items() if k not in ("group", "row_id")}
                 for key in (("calibration_variant", "cal=subtract"),
                             ("neutral_construction", "neutral=mean_cov"),
                             ("position", "pos=logits"))]
        assert cells[0] == cells[1] == cells[2]
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
        assert run_ablations(cfg) == agg  # a rerun recomputes the same rows

    def test_every_sweep_point_runs_every_row(self, tmp_path):
        plain = run_ablations(small_config(tmp_path, name="plain"))
        one = run_ablations(small_config(tmp_path, name="one", rho_sweep=(4.0,)))
        assert [{**r, "sweep_variable": None, "sweep_value": None}
                for r in one] == plain
        assert {(r["sweep_variable"], r["sweep_value"]) for r in one} == {("rho", 4.0)}
        two = run_ablations(small_config(tmp_path, name="two", rho_sweep=(1.0, 4.0)))
        assert len(two) == 28
        for rho in (1.0, 4.0):
            assert ([r["row_id"] for r in two if r["sweep_value"] == rho]
                    == [r["row_id"] for r in plain])


class TestSensitivity:
    def test_noise_level_zero_equals_baseline(self, tmp_path):
        sweep = NoiseSweep(kind="feature", levels=(0.0, 0.4), seed=3)
        cfg = small_config(tmp_path, name="noise", noise=sweep)
        agg = run_experiment(cfg)
        base_cfg = small_config(tmp_path, name="noise_base")
        base = run_experiment(base_cfg)
        zero = [r for r in agg if r["sweep_value"] == 0.0]
        for row in zero:
            match = next(r for r in base if r["row_id"] == row["row_id"])
            assert row["metrics"] == match["metrics"]

    def test_rho_sweep_regenerates_data(self, tmp_path):
        cfg = small_config(tmp_path, name="rho", rho_sweep=(1.0, 4.0))
        agg = run_experiment(cfg)
        assert sorted({r["sweep_value"] for r in agg}) == [1.0, 4.0]
        svg = tmp_path / "rho" / "sweep_rho.svg"
        assert svg.exists() and svg.read_text().startswith("<svg")

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
        agg = run_experiment(cfg)

        def gap(rho):
            none = next(r for r in agg if r["sweep_value"] == rho
                        and r["row_id"] == "none@logits")
            sub = next(r for r in agg if r["sweep_value"] == rho
                       and r["row_id"] == "subtract@logits")
            return (sub["metrics"]["f1_macro"]["mean"]
                    - none["metrics"]["f1_macro"]["mean"])

        assert gap(1.0) < gap(8.0)


class TestBiasDiagnostics:
    def test_ordering_violation_fatal_only_for_subtract(self, tmp_path, monkeypatch):
        # normalize rescales by 1/std(vec) and scale by lambda, so their
        # per-class shifts pick up data-dependent terms and may legitimately
        # violate the ordering; subtraction guarantees it, so there a
        # violation fails the row
        import neubm.harness as harness

        cfg = small_config(tmp_path)
        graph = generate_sbm(cfg.dataset)
        fold = stratified_split(graph, 0.15, 0.15, 3, seed=0)
        check = harness.check_bias_reduction
        monkeypatch.setattr(harness, "check_bias_reduction", lambda *a, **kw: {
            **check(*a, **kw), "min_shift_exceeds_maj": False})
        rows = harness.ablation_rows()
        records = harness._run_single(graph, cfg, rows, 0, 0, fold, None, None, "h")
        for row, r in zip(rows, records):
            if row.spec.variant == "subtract":
                assert r["status"] == "failed", row.row_id
                assert r["error"] == "NumericError: per-class shift ordering violated"
            else:
                assert r["status"] == "ok", row.row_id
                assert r["bias"]["min_shift_exceeds_maj"] is False  # informational
        assert {row.spec.variant for row in rows} == {
            "none", "subtract", "normalize", "scale"}


class TestEmitReport:
    def test_empty_results_valid_files(self, tmp_path):
        out = tmp_path / "empty"
        assert write_run(out, "experiment", small_config(tmp_path), []) == []
        payload = json.loads((out / "aggregate.json").read_text())
        assert payload["aggregates"] == []
        lines = (out / "results.csv").read_text().splitlines()
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
        assert all("NumericError: training diverged" in r["error"] for r in records)

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
    @pytest.mark.parametrize("field", ["train_frac", "val_frac"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_fraction_rejected(self, field, value):
        # NaN passes the range checks, so it is rejected on its own
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            ProtocolConfig(**{field: value})

    @pytest.mark.parametrize("make", [
        lambda seed: SbmConfig(3, 60, 2.0, 0.2, 0.02, 4, seed=seed),
        lambda seed: TrainConfig(seed=seed),
        lambda seed: NeutralConfig(seed=seed),
        lambda seed: NoiseSpec("structural", 0.1, seed=seed),
        lambda seed: ModelConfig("gcn", 4, 8, 3, seed=seed),
    ], ids=["dataset", "train", "neutral", "noise", "model"])
    def test_negative_seed_rejected(self, make):
        # built in Python, not only through a config file: numpy's
        # generators take seeds >= 0 only, so a negative one is rejected
        # where it is set, not where it is first drawn with
        assert make(0).seed == 0
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            make(-1)

    # two specs with one id would merge into one aggregate cell; scale
    # lambdas 1 and 1.0000001 both print as scale(1)
    @pytest.mark.parametrize("specs, spec_id", [
        ([{"variant": "subtract"}, {"variant": "subtract"}], "subtract@logits"),
        ([{"variant": "none"}, {"variant": "scale", "lambda": 1},
          {"variant": "scale", "lambda": 1.0000001}], "scale(1)@logits"),
    ], ids=["same_spec", "same_printed_lambda"])
    def test_repeated_spec_id_rejected(self, specs, spec_id):
        raw = {"dataset": README_CONFIG["dataset"], "calibration": specs}
        with pytest.raises(ConfigError, match=re.escape(repr([spec_id]))):
            load_experiment_config(raw)

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

    @pytest.mark.parametrize("empty", [[], (), None])
    def test_empty_rho_sweep_means_no_sweep(self, empty):
        cfg = load_experiment_config({"dataset": "data", "rho_sweep": empty})
        assert cfg.rho_sweep is None

    def test_nan_rho_rejected_at_load(self):
        # generating from a NaN rho never returns, so it must never load
        dataset = {**README_CONFIG["dataset"], "rho": float("nan")}
        with pytest.raises(ConfigError, match="'rho' must be float, got nan"):
            load_dataset_config(dataset)
        with pytest.raises(ConfigError, match="'rho' must be float, got nan"):
            load_experiment_config({**README_CONFIG, "dataset": dataset})

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

    def test_one_neutral_graph_and_operator_per_block(self, tmp_path, monkeypatch):
        # 21 validation forwards (epochs 0..20) in blocks of 3 epochs: 7
        # neutral graphs, each prepared once, whatever the forwards
        import neubm.harness as harness
        import neubm.neutral as neutral_module
        from neubm.models import prepare_operator

        cfg = small_config(
            tmp_path,
            train=TrainConfig(learning_rate=0.01, max_epochs=20, patience=20, seed=1),
            neutral=NeutralConfig(refresh_every=3, seed=2),
        )
        graph = generate_sbm(cfg.dataset)
        fold = stratified_split(graph, 0.15, 0.15, 3, seed=0)
        built, prepared = [], []
        _spy(monkeypatch, harness, "construct_neutral", built)

        def counting(g, config):
            prepared.append(g)
            return prepare_operator(g, config)

        monkeypatch.setattr(neutral_module, "prepare_operator", counting)
        rows = [harness.AblationRow("default", "none", CalibrationSpec("none"), None)]
        record, = harness._run_single(graph, cfg, rows, 0, 0, fold, None, None, "h")
        assert record["train_summary"]["epochs_run"] == 20
        assert len(prepared) == 7
        assert [id(g) for g in prepared] == [id(n.graph) for _, n in built]
        neutral_seed = record["derived_seeds"]["neutral"]
        assert [n.config.seed for _, n in built] == [neutral_seed + b for b in range(7)]


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
            records = _run_single(g, cfg, ablation_rows(), 0, 0, fold, None, None, "h")
            assert all(r["status"] == "ok" for r in records)
            return {r["row_id"]: r["bias"]["neutral_vector"] for r in records}

        assert neutral_vectors(permuted) == neutral_vectors(graph)

    def test_test_labels_leave_bias_diagnostics_unchanged(self, tmp_path):
        # relabel test rows from the all-label majority class to another one
        # until that majority flips: a permutation would keep the class
        # counts. The bias diagnostics must not move; only the MMD fields,
        # which measure the test classes as the metrics do, may.
        from neubm.graph import Graph
        from neubm.harness import _run_single, ablation_rows

        cfg = small_config(tmp_path)
        graph = generate_sbm(cfg.dataset)
        fold = stratified_split(graph, 0.15, 0.15, 3, seed=0)
        labels = graph.labels.copy()
        majority = np.bincount(labels).argmax()
        other = (majority + 1) % graph.num_classes
        for node in fold.test[labels[fold.test] == majority]:
            labels[node] = other
            if np.bincount(labels).argmax() != majority:
                break
        assert np.bincount(labels).argmax() != majority
        assert np.bincount(labels[fold.train]).argmax() == majority
        relabelled = Graph(num_nodes=graph.num_nodes, features=graph.features,
                           edges=graph.edges, labels=labels,
                           num_classes=graph.num_classes)

        def bias(g):
            records = _run_single(g, cfg, ablation_rows(), 0, 0, fold, None, None, "h")
            assert all(r["status"] == "ok" for r in records)
            return [{k: v for k, v in r["bias"].items() if not k.startswith("mmd_")}
                    for r in records]

        assert bias(relabelled) == bias(graph)


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

    @staticmethod
    def _method_flags(cfg, rows):
        """Whether each row calibrates as the method does: subtraction at
        the logits against the configured neutral variant."""
        variant = cfg.neutral.construction_variant
        return [r.spec == CalibrationSpec("subtract") and r.neutral_variant == variant
                for r in rows]

    def test_mmd_computed_once_per_distinct_samples(self, tmp_path, monkeypatch):
        # a model calibrates once per distinct (spec, reference), and the
        # rows that share one label its outcome; only the method's rows
        # carry the MMD diagnostic, so a (seed, fold) makes one mmd_rbf call
        # before calibration and one after, and every reported value equals
        # a direct call on the method's samples
        import neubm.harness as harness
        from neubm.metrics import mmd_rbf
        from neubm.training import softmax

        cfg, graph, fold = self._graph_and_fold(tmp_path)
        test_labels = graph.labels[fold.test]
        counts = np.bincount(test_labels)
        mmd_calls, logits_seen, outputs = [], [], []
        _spy(monkeypatch, harness, "mmd_rbf", mmd_calls)
        _spy(monkeypatch, harness, "predict_logits", logits_seen)
        _spy(monkeypatch, harness, "calibrate", outputs)

        def distinct(rows):  # first-use order, the order of the calls
            return list(dict.fromkeys((r.spec, r.neutral_variant) for r in rows))

        default_rows = harness.default_rows(cfg)
        harness._run_single(graph, cfg, default_rows, 0, 0, fold, None, None, "h")
        assert [args[2] for args, _ in outputs] == [s for s, _ in distinct(default_rows)]
        assert len(outputs) == 2

        rows = harness.ablation_rows()
        is_method = self._method_flags(cfg, rows)
        assert [r.row_id for r, m in zip(rows, is_method) if m] == [
            "cal=subtract", "neutral=mean_cov", "pos=logits"]
        pairs = distinct(rows)
        assert len(pairs) == 12

        def key(pair):
            return tuple(a.tobytes() for a in pair)

        for run_index in (0, 1):
            mmd_calls.clear()
            outputs.clear()
            records = harness._run_single(graph, cfg, rows, run_index, 0, fold,
                                          None, None, "h")
            assert all(r["status"] == "ok" for r in records)
            assert [args[2] for args, _ in outputs] == [s for s, _ in pairs]
            for r, m in zip(records, is_method):
                assert m == any(k.startswith("mmd_") for k in r["bias"]), r["row_id"]
            method = [r for r, m in zip(records, is_method) if m]
            (_, out), = [call for call, pair in zip(outputs, pairs)
                         if pair == (CalibrationSpec("subtract"), "mean_cov")]

            (c1, c2), = {tuple(r["bias"]["mmd_classes"]) for r in method}
            assert counts[c1] >= counts[c2] >= np.delete(counts, [c1, c2]).max()

            def samples(probs):  # probabilities of the test rows
                return [probs[test_labels == c][:harness.MMD_DIAG_MAX_ROWS]
                        for c in (c1, c2)]

            before = samples(softmax(logits_seen[-1][1][fold.test]))
            after = samples(out.probabilities)
            for r in method:
                assert r["bias"]["mmd_prob_before"] == mmd_rbf(*before)
                assert r["bias"]["mmd_prob_after"] == mmd_rbf(*after)
            assert [key(args) for args, _ in mmd_calls] == [key(before), key(after)]

    def test_default_rows_keep_mmd_on_the_subtract_row(self, tmp_path, monkeypatch):
        import neubm.harness as harness

        cfg, graph, fold = self._graph_and_fold(tmp_path)
        mmd_calls = []
        _spy(monkeypatch, harness, "mmd_rbf", mmd_calls)
        none, subtract = harness._run_single(graph, cfg, harness.default_rows(cfg),
                                             0, 0, fold, None, None, "h")
        assert not any(k.startswith("mmd_") for k in none["bias"])
        assert {"mmd_classes", "mmd_prob_before", "mmd_prob_after"} <= set(
            subtract["bias"])
        assert len(mmd_calls) == 2

    def test_method_rows_follow_the_configured_variant(self, tmp_path, monkeypatch):
        import neubm.harness as harness

        cfg, graph, fold = self._graph_and_fold(tmp_path)
        cfg = replace(cfg, neutral=NeutralConfig(construction_variant="random"))
        mmd_calls = []
        _spy(monkeypatch, harness, "mmd_rbf", mmd_calls)
        records = harness._run_single(graph, cfg, harness.ablation_rows(),
                                      0, 0, fold, None, None, "h")
        assert [r["row_id"] for r in records
                if r["bias"] and "mmd_prob_after" in r["bias"]] == ["neutral=random"]
        assert len(mmd_calls) == 2

    def test_no_mmd_when_every_row_is_uncalibrated(self, tmp_path, monkeypatch):
        import neubm.harness as harness

        cfg, graph, fold = self._graph_and_fold(tmp_path)
        rows = [r for r in harness.ablation_rows() if r.spec.variant == "none"]
        mmd_calls = []
        _spy(monkeypatch, harness, "mmd_rbf", mmd_calls)
        records = harness._run_single(graph, cfg, rows, 0, 0, fold, None, None, "h")
        assert records and all(r["status"] == "ok" for r in records)
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
        rows = harness.ablation_rows()
        records = harness._run_single(graph, cfg, rows, 0, 0, fold, None, None, "h")
        is_method = self._method_flags(cfg, rows)
        method = [r for r, m in zip(records, is_method) if m]
        assert method[0]["status"] == "failed"
        assert "NumericError" in method[0]["error"]
        assert all(r["status"] == "ok" for r in method[1:])
        assert all("mmd_prob_before" in r["bias"] for r in method[1:])
        others = [r for r, m in zip(records, is_method) if not m]
        assert all(r["status"] == "ok" for r in others)
        assert not any("mmd_prob_before" in r["bias"] for r in others)

    def test_train_summary_reports_curves(self, tmp_path, monkeypatch):
        import neubm.harness as harness

        cfg, graph, fold = self._graph_and_fold(tmp_path)
        trained = []
        _spy(monkeypatch, harness, "train", trained)
        records = harness._run_single(graph, cfg, harness.default_rows(cfg),
                                      0, 0, fold, None, None, "h")
        (_, (_, report)), = trained
        assert len(report.val_metric_curve) == report.epochs_run + 1
        for r in records:
            summary = r["train_summary"]
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
        records = harness._run_single(graph, cfg, rows, 0, 0, fold, None, None, "h")
        expected = {
            neutral.config.construction_variant: neutral_fidelity(neutral)
            for _, neutral in built
        }
        assert sorted(expected) == ["class_balanced", "mean_cov", "random"]
        for row, record in zip(rows, records):
            if row.neutral_variant is None:
                assert record["neutral_fidelity"] is None
                continue
            fid = record["neutral_fidelity"]
            assert fid == expected[row.neutral_variant]
            assert fid["variant"] == row.neutral_variant
            assert fid["target_density"] == pytest.approx(
                graph.num_edges / (graph.num_nodes * (graph.num_nodes - 1) / 2))
            assert abs(fid["realized_density"] / fid["target_density"] - 1) < 0.5
            assert fid["max_abs_mean_error"] >= 0.0
            assert fid["cov_rel_frobenius_error"] >= 0.0

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

    def test_default_rows_use_configured_neutral_variant(self, tmp_path):
        # the reported rows, not only the refresh hook, honour the config's
        # construction variant
        cfg = small_config(
            tmp_path,
            neutral=NeutralConfig(construction_variant="random"),
            protocol=ProtocolConfig(num_seeds=1, k_folds=1, train_frac=0.15,
                                    val_frac=0.15, min_per_class=3),
        )
        run_experiment(cfg)
        records = read_records(tmp_path / "exp" / "records.jsonl")
        by_row = {r["row_id"]: r["neutral_fidelity"] for r in records}
        assert by_row["none@logits"] is None
        assert by_row["subtract@logits"]["variant"] == "random"
