import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neubm
from neubm import cli
from neubm.calibrate import CalibrationSpec, calibrate, write_predictions_csv
from neubm.cli import main
from neubm.datasets import load_canonical, stored_split
from neubm.errors import ConfigError, DataError, NeubmError, NumericError
from neubm.graph import compute_dataset_stats
from neubm.metrics import evaluate
from neubm.models import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    ModelConfig,
    init_params,
    load_checkpoint,
    predict_logits,
    save_checkpoint,
)
from neubm.neutral import (
    NeutralConfig,
    construct_neutral,
    neutral_logit_vector,
    train_rows,
)


CHECKPOINT = {
    "format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
    "model_config": {"architecture": "gcn", "input_dim": 6, "hidden_dim": 4,
                     "num_classes": 3},
}  # 6 x 4 + 4 x 3 = 36 weights, for the 6-feature, 3-class dataset_dir
# what `neubm plot` reads of one records.jsonl row
RECORD = {"group": "sweep", "row_id": "none@logits", "status": "ok",
          "sweep_variable": "rho", "sweep_value": 2.0,
          "metrics": {"f1_macro": 0.5, "f1_weighted": 0.5, "f1_micro": 0.5,
                      "accuracy": 0.5},
          "bias": {"majority_prob_decreased": True}}
GEN_CONFIG = {"num_classes": 3, "total_nodes": 60, "rho": 2, "p_intra": 0.2,
              "p_inter": 0.02, "feature_dim": 8}
# a valid split of the 200-node dataset_dir, all three parts nonempty
STORED_SPLIT = {"train": list(range(0, 60)), "val": list(range(60, 120)),
                "test": list(range(120, 200))}
# JSON nested deeper than the decoder's recursion limit
DEEP_OBJECT = '{"a": ' * 100_000 + "1" + "}" * 100_000
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000


def run_cli(*args):
    return main([str(a) for a in args])


def test_one_error_class_per_exit_code():
    classes = NeubmError.__subclasses__()
    assert set(classes) == {ConfigError, DataError, NumericError}
    assert not any(cls.__subclasses__() for cls in classes)
    assert (ConfigError.exit_code, DataError.exit_code, NumericError.exit_code) == (2, 3, 4)


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    code = run_cli(
        "gen", "--out", out, "--classes", 3, "--nodes", 200, "--rho", 4,
        "--p-intra", 0.1, "--p-inter", 0.01, "--dim", 6,
        "--separation", 1.5, "--seed", 1,
    )
    assert code == 0
    return out


class TestGenStats:
    def test_gen_writes_canonical_dir(self, dataset_dir):
        for fname in ("meta.json", "features.csv", "edges.csv", "labels.csv"):
            assert (dataset_dir / fname).exists()
        g = load_canonical(dataset_dir)
        assert g.num_nodes == 200 and g.num_classes == 3

    def test_stats_prints_summary(self, dataset_dir, capsys):
        assert run_cli("stats", dataset_dir) == 0
        out = capsys.readouterr().out
        assert "200 nodes" in out and "rho=" in out and "1/rho=" in out

    def test_stats_missing_dir_exit_code(self, tmp_path):
        assert run_cli("stats", tmp_path / "nope") == 3


class TestTrainCalibrateEval:
    def test_full_pipeline(self, dataset_dir, tmp_path, capsys):
        model = tmp_path / "model.json"
        code = run_cli(
            "train", "--data", dataset_dir, "--out", model,
            "--hidden", 16, "--max-epochs", 40, "--patience", 40,
            "--train-frac", 0.2, "--val-frac", 0.2, "--min-per-class", 3,
            "--seed", 2, "--write-masks",
        )
        assert code == 0 and model.exists()
        # pinned: neither the file format nor the drawn split may move
        written = (dataset_dir / "masks.json").read_bytes()
        assert hashlib.sha256(written).hexdigest() == (
            "54c8214a3d899df694918072ee3cd1e952b0bee3203cc98b4bec02af3ed71f71")

        preds = tmp_path / "preds.csv"
        code = run_cli(
            "calibrate", "--model", model, "--data", dataset_dir,
            "--out", preds, "--variant", "subtract",
            "--save-neutral", tmp_path / "neutral",
        )
        assert code == 0 and preds.exists()
        assert (tmp_path / "neutral" / "neutral_meta.json").exists()

        metrics = tmp_path / "metrics.json"
        code = run_cli(
            "eval", "--pred", preds, "--data", dataset_dir,
            "--out", metrics, "--mask", "test",
        )
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert set(payload) == {
            "f1_macro", "f1_weighted", "f1_micro", "accuracy", "rho", "per_class",
        }
        assert 0.0 <= payload["f1_macro"] <= 1.0

    def test_eval_mask_all_scores_every_labeled_node(self, dataset_dir, tmp_path):
        labels_file = dataset_dir / "labels.csv"
        labels = labels_file.read_text().splitlines()
        labels[7] = "-1"  # one unlabeled node, which no score may count
        labels_file.write_text("\n".join(labels) + "\n")
        graph = load_canonical(dataset_dir)
        predicted = np.arange(graph.num_nodes) % 3
        preds, metrics = tmp_path / "preds.csv", tmp_path / "metrics.json"
        preds.write_text("node_id,predicted_label,prob_0\n" + "".join(
            f"{node},{label},1.0\n" for node, label in enumerate(predicted)))
        assert run_cli("eval", "--pred", preds, "--data", dataset_dir,
                       "--out", metrics, "--mask", "all") == 0
        labeled = graph.labels >= 0
        expected = evaluate(predicted[labeled], graph.labels[labeled],
                            num_classes=graph.num_classes)
        assert metrics.read_text() == json.dumps(expected, indent=2) + "\n"

    def test_calibrate_random_neutral_copies_stored_train_rows(self, dataset_dir,
                                                                tmp_path):
        (dataset_dir / "masks.json").write_text(json.dumps(STORED_SPLIT))
        model, preds = tmp_path / "model.json", tmp_path / "preds.csv"
        save_checkpoint(init_params(ModelConfig(**CHECKPOINT["model_config"])), model)
        assert run_cli("calibrate", "--model", model, "--data", dataset_dir,
                       "--out", preds, "--neutral-variant", "random") == 0
        # the same composition through the library
        params, graph = load_checkpoint(model), load_canonical(dataset_dir)
        split = stored_split(dataset_dir, graph.num_nodes)
        neutral = construct_neutral(
            compute_dataset_stats(graph), NeutralConfig(construction_variant="random"),
            labeled_source=train_rows(graph, split.train))
        out = calibrate(predict_logits(params, graph),
                        neutral_logit_vector(params, neutral), CalibrationSpec())
        write_predictions_csv(out, tmp_path / "expected.csv")
        assert preds.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_calibrate_with_saved_neutral_reproducible(self, dataset_dir, tmp_path):
        model = tmp_path / "model.json"
        run_cli(
            "train", "--data", dataset_dir, "--out", model, "--hidden", 8,
            "--max-epochs", 20, "--patience", 20, "--train-frac", 0.2,
            "--val-frac", 0.2, "--min-per-class", 3,
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("calibrate", "--model", model, "--data", dataset_dir, "--out", a,
                "--save-neutral", tmp_path / "neutral")
        run_cli("calibrate", "--model", model, "--data", dataset_dir, "--out", b,
                "--neutral-dir", tmp_path / "neutral")
        assert a.read_bytes() == b.read_bytes()

    def test_older_neutral_layout_gives_the_same_predictions(self, dataset_dir,
                                                             tmp_path):
        # a neutral_meta.json that still holds the retired stats and config
        # keys and a top-level seed loads, and calibrates as the current
        # layout does, whatever node count the retired override named
        model = tmp_path / "model.json"
        run_cli("train", "--data", dataset_dir, "--out", model, "--hidden", 8,
                "--max-epochs", 10, "--patience", 10, "--train-frac", 0.2,
                "--val-frac", 0.2, "--min-per-class", 3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("calibrate", "--model", model, "--data", dataset_dir,
                       "--out", a, "--save-neutral", tmp_path / "neutral") == 0
        meta_file = tmp_path / "neutral" / "neutral_meta.json"
        meta = json.loads(meta_file.read_text())
        meta["stats"].update(source_node_count=200, covariance_mode="full")
        meta["config"].update(node_count_override=25,
                              regularization_eps_scale=1e-3)
        meta["seed"] = meta["config"]["seed"]
        meta_file.write_text(json.dumps(meta, indent=2) + "\n")
        assert run_cli("calibrate", "--model", model, "--data", dataset_dir,
                       "--out", b, "--neutral-dir", tmp_path / "neutral") == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags, named, stored", [
        (("--train-frac", 0.5, "--val-frac", 0.5), "train_frac + val_frac", False),
        (("--lr", -1), "learning_rate", False),
        (("--lr", 0), "learning_rate", False),
        (("--weight-decay", -0.1), "weight_decay", False),
        # fractions that pass the sum check but draw an empty part
        (("--train-frac", 0.5, "--val-frac", 0.499),
         "test part empty (train_frac=0.5, val_frac=0.499)", False),
        (("--val-frac", 0), "val part empty", False),
        (("--val-frac", -0.1), "train_frac and val_frac must be >= 0", False),
        # split flags apply to a drawn split only, never to a stored one
        (("--train-frac", 0.6, "--val-frac", 0.3, "--write-masks"),
         "--train-frac, --val-frac, --write-masks apply to a drawn split only",
         True),
        (("--min-per-class", 3), "--min-per-class apply", True),
        (("--write-masks",), "--write-masks apply", True),
        # argparse's float takes nan; a float flag does not
        (("--train-frac", "nan"), "--train-frac must be a finite number, got nan",
         False),
        # argparse's int takes -1; numpy's generators do not
        (("--seed", -1), "--seed must be >= 0, got -1", False),
    ], ids=["split_leaves_no_test_nodes", "negative_lr", "zero_lr",
            "negative_weight_decay", "drawn_split_empty_test",
            "drawn_split_empty_val", "negative_val_frac",
            "stored_split_with_fractions", "stored_split_with_min_per_class",
            "stored_split_with_write_masks", "nan_train_frac", "negative_seed"])
    def test_train_flags_checked_before_training(self, dataset_dir, tmp_path,
                                                 capsys, flags, named, stored):
        # a config error (exit 2) before anything is trained or written;
        # without a stored split, --write-masks would write one
        masks = dataset_dir / "masks.json"
        if stored:
            masks.write_text(json.dumps(STORED_SPLIT))
        written = masks.read_bytes() if stored else None
        model = tmp_path / "model.json"
        code = run_cli("train", "--data", dataset_dir, "--out", model,
                       "--hidden", 8, "--max-epochs", 5, "--patience", 5,
                       *(() if stored else ("--write-masks",)), *flags)
        assert code == 2
        captured = capsys.readouterr()
        assert named in captured.err and "trained" not in captured.out
        assert "Traceback" not in captured.err
        assert not model.exists()
        assert (masks.read_bytes() if masks.exists() else None) == written

    @pytest.mark.parametrize("command, flag", [
        ("gen", "--seed"), ("calibrate", "--neutral-seed")])
    def test_negative_seed_flag_exit_code(self, dataset_dir, tmp_path, capsys,
                                          command, flag):
        # a config error naming the flag, before any file is read or written
        out = tmp_path / "out"
        args = {"gen": ("--out", out),
                "calibrate": ("--model", tmp_path / "missing.json", "--data",
                              dataset_dir, "--out", out)}[command]
        assert run_cli(command, *args, flag, -1) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} must be >= 0, got -1" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_scale_variant_requires_lambda(self, dataset_dir, tmp_path):
        model = tmp_path / "model.json"
        run_cli("train", "--data", dataset_dir, "--out", model, "--hidden", 8,
                "--max-epochs", 10, "--patience", 10, "--train-frac", 0.2,
                "--val-frac", 0.2, "--min-per-class", 3)
        code = run_cli("calibrate", "--model", model, "--data", dataset_dir,
                       "--out", tmp_path / "p.csv", "--variant", "scale")
        assert code == 2  # config error

    def test_scale_variant_rejects_nan_lambda(self, dataset_dir, tmp_path, capsys):
        model, preds = tmp_path / "model.json", tmp_path / "p.csv"
        save_checkpoint(init_params(ModelConfig(**CHECKPOINT["model_config"])), model)
        code = run_cli("calibrate", "--model", model, "--data", dataset_dir,
                       "--out", preds, "--variant", "scale", "--lam", "nan")
        assert code == 2  # config error, before anything is written
        assert "--lam must be a finite number" in capsys.readouterr().err
        assert not preds.exists()


def unlabel_split_node(dataset_dir, name):
    """Mark the first node of one masks.json split unlabeled (-1)."""
    node = json.loads((dataset_dir / "masks.json").read_text())[name][0]
    path = dataset_dir / "labels.csv"
    labels = path.read_text().splitlines()
    labels[node] = "-1"
    path.write_text("\n".join(labels) + "\n")


class TestUnlabeledSplitNodes:
    def train(self, dataset_dir, model, *extra):
        return run_cli(
            "train", "--data", dataset_dir, "--out", model, "--hidden", 8,
            "--max-epochs", 5, "--patience", 5, "--train-frac", 0.2,
            "--val-frac", 0.2, "--min-per-class", 3, *extra,
        )

    def test_train_rejects_unlabeled_train_node(self, dataset_dir, tmp_path):
        model = tmp_path / "model.json"
        assert self.train(dataset_dir, model, "--write-masks") == 0
        unlabel_split_node(dataset_dir, "train")
        code = run_cli("train", "--data", dataset_dir, "--out", tmp_path / "again.json",
                       "--hidden", 8, "--max-epochs", 5, "--patience", 5)
        assert code == 3  # data error

    def test_eval_rejects_unlabeled_test_node(self, dataset_dir, tmp_path):
        model, preds = tmp_path / "model.json", tmp_path / "preds.csv"
        assert self.train(dataset_dir, model, "--write-masks") == 0
        assert run_cli("calibrate", "--model", model, "--data", dataset_dir,
                       "--out", preds, "--variant", "none") == 0
        unlabel_split_node(dataset_dir, "test")
        code = run_cli("eval", "--pred", preds, "--data", dataset_dir,
                       "--out", tmp_path / "m.json", "--mask", "test")
        assert code == 3  # data error


class TestExperimentCommands:
    def exp_config(self, tmp_path, **extra):
        payload = {
            "dataset": {"num_classes": 3, "total_nodes": 200, "rho": 4,
                        "p_intra": 0.1, "p_inter": 0.01, "feature_dim": 6,
                        "class_mean_separation": 1.5, "seed": 1},
            "model": {"architecture": "gcn", "hidden_dim": 12, "dropout": 0.2},
            "train": {"learning_rate": 0.01, "max_epochs": 30, "patience": 30,
                      "seed": 0},
            "calibration": [{"variant": "none"}, {"variant": "subtract"}],
            "protocol": {"num_seeds": 1, "k_folds": 1, "train_frac": 0.15,
                         "val_frac": 0.15, "min_per_class": 3},
            "output_dir": str(tmp_path / "out"),
        }
        payload.update(extra)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(payload))
        return path

    def test_experiment_writes_reports(self, tmp_path, capsys):
        cfg = self.exp_config(tmp_path)
        assert run_cli("experiment", "--config", cfg) == 0
        out = tmp_path / "out"
        for fname in ("aggregate.json", "results.csv", "records.jsonl",
                      "config.json"):
            assert (out / fname).exists()
        stdout = capsys.readouterr().out
        assert "subtract@logits" in stdout

    def test_sweep_and_plot(self, tmp_path):
        cfg = self.exp_config(
            tmp_path, noise={"kind": "feature", "levels": [0.0, 0.5], "seed": 2}
        )
        assert run_cli("experiment", "--config", cfg) == 0
        svg = tmp_path / "out" / "sweep_noise_feature.svg"
        drawn = svg.read_bytes()
        svg.unlink()
        assert run_cli("plot", "--results", tmp_path / "out") == 0
        assert svg.read_bytes() == drawn  # redrawn from records.jsonl alone

    def test_sweep_is_not_a_command(self, tmp_path, capsys):
        # experiment and ablate run every sweep point; no command of its own
        cfg = self.exp_config(tmp_path, rho_sweep=[1, 4])
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--config", cfg)
        assert exc.value.code == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ablate_runs(self, tmp_path, capsys):
        cfg = self.exp_config(tmp_path)
        assert run_cli("ablate", "--config", cfg) == 0
        stdout = capsys.readouterr().out
        assert "neutral=mean_cov" in stdout and "pos=post_softmax" in stdout

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {}}))
        assert run_cli("experiment", "--config", path) == 2

    @pytest.mark.parametrize("content, named", [
        ({"train": {"max_epoch": 5}}, "'train'"),
        ({"dataset": {"num_classes": 3, "total_nodes": 200, "rho": 4,
                      "p_intra": 0.1, "p_inter": 0.01, "feature_dim": 6,
                      "seeed": 1}}, "'dataset'"),
        ({"noise": {"levels": [0.0, 0.5]}}, "'noise'"),
        ({"model": {"architecture": "gcn", "hiden_dim": 12}}, "'model'"),
        ({"trian": {"max_epochs": 5}}, "'trian'"),
        ({"calibration": [{"variant": "subtract", "positon": "logits"}]},
         ("'positon'", "exp.json")),
        ('{"dataset": {"num_classes": 3,', "bad.json"),
        (None, "bad.json"),
        ({"dataset": 5}, "'dataset'"),
        ({"calibration": {"variant": "none"}}, "'calibration'"),
        ({"calibration": [3]}, ("'calibration'", "[3]", "exp.json")),
        ({"calibration": [{"variant": "shift"}]}, ("'shift'", "exp.json")),
        ({"calibration": [{"position": "input"}]}, ("'input'", "exp.json")),
        ({"rho_sweep": 4}, "'rho_sweep'"),
        # only an empty list means "no sweep"; other falsy values are wrong
        ({"rho_sweep": 0}, ("'rho_sweep'", "exp.json")),
        ({"rho_sweep": False}, ("'rho_sweep'", "exp.json")),
        ({"rho_sweep": ""}, ("'rho_sweep'", "exp.json")),
        ({"rho_sweep": {}}, ("'rho_sweep'", "exp.json")),
        ({"noise": {"kind": "feature", "levels": 0.5}}, ("'noise'", "'levels'")),
        ({"rho_sweep": ["a"]}, ("'rho_sweep'", "exp.json")),
        ({"noise": {"kind": "feature", "levels": ["x"]}},
         ("'noise'", "'levels'", "exp.json")),
        # a value of the wrong type, in every section
        ({"calibration": [{"variant": "scale", "lambda": "x"}]},
         ("'calibration'", "'lam' must be float or null, got 'x'", "exp.json")),
        ({"protocol": {"num_seeds": 1.5}}, ("'num_seeds' must be int", "exp.json")),
        ({"protocol": {"k_folds": 1.5}}, ("'k_folds' must be int", "exp.json")),
        ({"protocol": {"min_per_class": "2"}},
         ("'min_per_class' must be int", "exp.json")),
        ({"train": {"learning_rate": "x"}},
         ("'learning_rate' must be float", "exp.json")),
        ({"train": {"max_epochs": 3.5, "patience": 3}},
         ("section 'train': 'max_epochs' must be int, got 3.5", "exp.json")),
        ({"train": {"seed": "a"}}, ("'seed' must be int", "exp.json")),
        ({"model": {"hidden_dim": 2.5}}, ("'hidden_dim' must be int", "exp.json")),
        ({"model": {"dropout": "x"}}, ("'dropout' must be float", "exp.json")),
        ({"dataset": {"num_classes": 3, "total_nodes": 200.5, "rho": 4,
                      "p_intra": 0.1, "p_inter": 0.01, "feature_dim": 6}},
         ("'total_nodes' must be int", "exp.json")),
        ({"neutral": {"seed": "a"}}, ("'seed' must be int", "exp.json")),
        # a retired key is an unknown one
        ({"neutral": {"node_count_override": 25}},
         ("['node_count_override']", "exp.json")),
        ({"neutral": {"refresh_every": True}},
         ("'refresh_every' must be int or str, got True", "exp.json")),
        # keys the graph and the split seed set
        ({"model": {"architecture": "gcn", "hidden_dim": 12, "seed": 5}},
         ("['seed']", "exp.json")),
        ({"model": {"architecture": "gcn", "hidden_dim": 12, "input_dim": 4}},
         ("['input_dim']", "exp.json")),
        ({"model": {"architecture": "gcn", "hidden_dim": 12, "num_classes": 4}},
         ("['num_classes']", "exp.json")),
        # sweep points, checked before any data is made or model trained
        ({"rho_sweep": [2, 3, 0.5]}, ("rho", "exp.json")),
        ({"noise": {"kind": "feature", "levels": [0.0, 1.5]}},
         ("noise level", "exp.json")),
        ({"noise": {"kind": "bogus", "levels": [0.0]}}, ("'bogus'", "exp.json")),
        # fractions that pass the sum check but draw an empty part
        ({"protocol": {"num_seeds": 1, "k_folds": 2, "train_frac": 0.5,
                       "val_frac": 0.499, "min_per_class": 3}},
         "the split leaves the test part empty (train_frac=0.5, val_frac=0.499)"),
        # a negative fraction is the protocol section's fault, found on load
        ({"protocol": {"num_seeds": 1, "k_folds": 1, "train_frac": -0.1,
                       "val_frac": 0.2, "min_per_class": 3}},
         ("section 'protocol': train_frac and val_frac must be >= 0", "exp.json")),
        # a sweep with no points, like an empty rho_sweep, is an error
        ({"noise": {"kind": "feature", "levels": []}},
         ("section 'noise': levels must list at least one", "exp.json")),
        # JSON's NaN and Infinity parse; a float field takes finite numbers only
        ({"protocol": {"num_seeds": 1, "k_folds": 1, "train_frac": float("nan"),
                       "val_frac": 0.15, "min_per_class": 3}},
         ("section 'protocol': 'train_frac' must be float, got nan", "exp.json")),
        ({"calibration": [{"variant": "scale", "lambda": float("inf")}]},
         ("section 'calibration': 'lam' must be float or null, got inf",
          "exp.json")),
        ({"dataset": {"num_classes": 3, "total_nodes": 200, "rho": 4,
                      "p_intra": 0.1, "p_inter": 0.01, "feature_dim": 6,
                      "feature_std": float("nan")}},
         ("section 'dataset': 'feature_std' must be float, got nan", "exp.json")),
        # a repeated sweep point would merge into one aggregate cell
        ({"rho_sweep": [2, 2.0]}, ("rho_sweep repeats a point", "exp.json")),
        ({"noise": {"kind": "feature", "levels": [0.1, 0.1]}},
         ("section 'noise': levels repeats a point", "exp.json")),
        # so would a repeated calibration spec id
        ({"calibration": [{"variant": "subtract"}, {"variant": "subtract"}]},
         ("calibration repeats spec ids ['subtract@logits']", "exp.json")),
        # an empty list runs no spec, not the default ones
        ({"calibration": []},
         ("section 'config': calibration must list at least one spec",
          "exp.json")),
        # numpy's generators take seeds >= 0 only
        ({"train": {"seed": -100}},
         ("section 'train': seed must be >= 0, got -100", "exp.json")),
        ({"neutral": {"seed": -50}},
         ("section 'neutral': seed must be >= 0, got -50", "exp.json")),
        ({"dataset": {"num_classes": 3, "total_nodes": 200, "rho": 4,
                      "p_intra": 0.1, "p_inter": 0.01, "feature_dim": 6,
                      "seed": -3}},
         ("section 'dataset': seed must be >= 0, got -3", "exp.json")),
        ({"noise": {"kind": "structural", "levels": [0.1], "seed": -1}},
         ("section 'noise': seed must be >= 0, got -1", "exp.json")),
    ], ids=["train_key", "dataset_key", "noise_without_kind", "model_key",
            "top_level_key", "calibration_key", "malformed_json", "missing_file",
            "dataset_not_path_or_object", "calibration_not_a_list",
            "calibration_spec_not_an_object", "calibration_variant",
            "calibration_position", "rho_sweep_not_a_list", "rho_sweep_zero",
            "rho_sweep_false", "rho_sweep_empty_string", "rho_sweep_empty_object",
            "noise_levels_not_a_list", "rho_sweep_entry_not_a_number",
            "noise_level_not_a_number", "calibration_lambda_type",
            "protocol_num_seeds_type", "protocol_k_folds_type",
            "protocol_min_per_class_type", "train_learning_rate_type",
            "train_max_epochs_type", "train_seed_type", "model_hidden_dim_type",
            "model_dropout_type", "dataset_total_nodes_type", "neutral_seed_type",
            "neutral_node_count_override_retired", "neutral_refresh_every_bool",
            "model_seed_derived", "model_input_dim_derived",
            "model_num_classes_derived", "rho_sweep_point_below_one",
            "noise_level_above_one", "noise_kind_unknown",
            "drawn_split_empty_test", "protocol_negative_train_frac",
            "noise_levels_empty", "protocol_nan_train_frac",
            "calibration_infinite_lambda", "dataset_nan_feature_std",
            "rho_sweep_repeated_point", "noise_levels_repeated_point",
            "calibration_repeated_spec_id", "calibration_empty_list",
            "train_negative_seed", "neutral_negative_seed",
            "dataset_negative_seed", "noise_negative_seed"])
    def test_config_file_errors_exit_code(self, tmp_path, capsys, content, named):
        """A bad config file is a config error (exit 2) naming the section
        or file, not a traceback, and is rejected before anything runs."""
        if isinstance(content, dict):
            path = self.exp_config(tmp_path, **content)
        else:
            path = tmp_path / "bad.json"
            if content is not None:
                path.write_text(content)
        assert run_cli("experiment", "--config", path) == 2
        err = capsys.readouterr().err
        for name in (named,) if isinstance(named, str) else named:
            assert name in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, content, code, named", [
        ("gen", {"num_classes": 3, "total_nodes": 200, "rho": 4,
                 "p_intra": 0.1, "p_inter": 0.01, "feature_dim": 6,
                 "seeed": 1}, 2, "'seeed'"),
        ("gen", '{"num_classes": 3,', 2, "bad.json"),
        ("gen", "[3, 200]", 2, "bad.json"),
        ("calibrate", None, 2, "bad.json"),
        ("calibrate", "not a checkpoint", 2, "bad.json"),
        ("plot", None, 2, "records.jsonl"),
        ("plot", '{"group": "g"}\n', 2, "records.jsonl:1"),
        ("plot", "[1, 2]\n", 2, "records.jsonl:1"),
        ("plot", json.dumps(RECORD) + "\n"
         + json.dumps({**RECORD, "sweep_value": "3"}) + "\n", 2, "records.jsonl:2"),
        ("gen_flags", GEN_CONFIG, 2, "--nodes, --seed"),
        ("calibrate", {**CHECKPOINT, "model_config": {
            "architecture": "gcn", "input_dim": 6, "hidden_dim": 4},
            "params_flat": [0.0] * 36}, 2, "bad.json"),
        ("calibrate", {**CHECKPOINT, "params_flat": [0.0] * 35}, 2, "bad.json"),
        ("calibrate", {**CHECKPOINT, "model_config": {
            **CHECKPOINT["model_config"], "input_dim": -6}}, 2, "bad.json"),
        ("neutral", lambda meta: meta["stats"].pop("n_bar"), 3,
         "neutral_meta.json"),
        ("neutral", lambda meta: meta["config"].update(seeed=1), 3,
         "neutral_meta.json"),
        ("neutral", '{"stats": {"n_bar": 3,', 3, "neutral_meta.json:1"),
        ("neutral", lambda meta: meta["config"].update(covariance_mode="bogus"),
         3, "neutral_meta.json"),
        ("calibrate", {**CHECKPOINT, "model_config": {
            **CHECKPOINT["model_config"], "hidden_dim": 2.5},
            "params_flat": [0.0] * 36}, 2, "bad.json"),
        ("neutral", lambda meta: meta["config"].update(refresh_every=True), 3,
         "neutral_meta.json"),
        ("neutral", lambda meta: meta["stats"]["mu_node"].__setitem__(0, None), 3,
         "neutral_meta.json"),
        # diagonal-mode stats of older files held only the variance vector
        ("neutral", lambda meta: meta["stats"].update(
            sigma_node=[1.0] * 6, covariance_mode="diagonal"), 3,
         "neutral_meta.json"),
        ("eval", "node_id,predicted_label,prob_0,prob_1,prob_2\n"
                 "0,1,0.2,0.5,0.3\n1,one,0.2,0.5,0.3\n", 3, "bad.csv:3"),
        ("eval", None, 3, "bad.csv"),
        ("eval", "node_id,predicted_label,prob_0\n0,0,1.0\n", 3, "bad.csv"),
        ("gen", DEEP_OBJECT, 2, "bad.json"),
        ("calibrate", DEEP_OBJECT, 2, "bad.json"),
        ("plot", DEEP_ARRAY + "\n", 2, "records.jsonl:1"),
        ("neutral", DEEP_OBJECT, 3, "neutral_meta.json"),
        # JSON's NaN and Infinity parse; the parameters they fill must not load
        ("calibrate", {**CHECKPOINT, "params_flat": [float("nan")] + [0.0] * 35},
         2, "bad.json"),
        ("calibrate", {**CHECKPOINT, "params_flat": [0.0] * 35 + [float("inf")]},
         2, "bad.json"),
        # a stored split holds all three parts, each nonempty, or is no split
        ("train", {"test": list(range(0, 200, 2))}, 3, "masks.json]"),
        ("train", {"train": list(range(0, 40)), "val": list(range(40, 80)),
                   "test": []}, 3, "masks.json]"),
        ("calibrate_random", {"test": list(range(0, 200, 2))}, 3, "masks.json]"),
        ("calibrate_random", None, 3, "needs a stored split"),
        ("eval_split", {"test": list(range(0, 200, 2))}, 3, "masks.json]"),
        # the numbers a report or a score reads must be finite
        ("plot", json.dumps({**RECORD, "sweep_value": float("nan")}) + "\n", 2,
         "records.jsonl:1"),
        ("plot", json.dumps(RECORD) + "\n" + json.dumps(
            {**RECORD, "metrics": {**RECORD["metrics"], "accuracy": float("inf")}})
         + "\n", 2, "records.jsonl:2"),
        ("eval", "node_id,predicted_label,prob_0,prob_1,prob_2\n"
                 "0,1,0.2,0.5,0.3\n1,1,0.2,nan,0.3\n", 3, "bad.csv:3"),
    ], ids=["gen_unknown_key", "gen_malformed_json", "gen_not_an_object",
            "calibrate_missing_model", "calibrate_non_json_model",
            "plot_without_records", "plot_record_missing_keys",
            "plot_record_not_an_object", "plot_record_string_sweep_value",
            "gen_config_with_flags", "checkpoint_missing_config_key",
            "checkpoint_short_params", "checkpoint_negative_input_dim",
            "neutral_missing_stats_key", "neutral_unknown_config_key",
            "neutral_malformed_json", "neutral_bad_config_value",
            "checkpoint_float_hidden_dim", "neutral_bool_refresh_every",
            "neutral_null_mean_entry", "neutral_variance_vector_sigma",
            "eval_non_integer_label", "eval_missing_predictions",
            "eval_too_few_predictions", "gen_deeply_nested_config",
            "checkpoint_deeply_nested", "plot_record_deeply_nested",
            "neutral_deeply_nested", "checkpoint_nan_param",
            "checkpoint_infinite_param", "stored_split_only_test",
            "stored_split_empty_test", "stored_split_only_test_random_neutral",
            "random_neutral_without_stored_split", "eval_partial_stored_split",
            "plot_record_nan_sweep_value", "plot_record_infinite_metric",
            "eval_nan_probability"])
    def test_input_file_errors_exit_code(self, dataset_dir, tmp_path, capsys,
                                         command, content, code, named):
        """A missing or malformed input file exits with its category's code,
        2 for configs, checkpoints and records and 3 for dataset and neutral
        directories and predictions, naming the file or key, not a
        traceback. A partial stored split fails before a checkpoint is
        written."""
        path = tmp_path / {"eval": "bad.csv", "plot": "records.jsonl"}.get(
            command, "bad.json")
        model, neutral = tmp_path / "model.json", tmp_path / "neutral"
        if command in ("train", "calibrate_random", "eval_split"):
            path = dataset_dir / "masks.json"
        if command in ("neutral", "calibrate_random"):
            save_checkpoint(init_params(ModelConfig(**CHECKPOINT["model_config"])),
                            model)
        if command == "neutral":
            assert run_cli("calibrate", "--model", model, "--data", dataset_dir,
                           "--out", tmp_path / "pred.csv",
                           "--save-neutral", neutral) == 0
            path = neutral / "neutral_meta.json"
            if callable(content):
                meta = json.loads(path.read_text())
                content(meta)
                content = meta
        if isinstance(content, dict):
            path.write_text(json.dumps(content))
        elif content is not None:
            path.write_text(content)
        argv = {
            "gen": ["gen", "--out", tmp_path / "gen", "--config", path],
            "calibrate": ["calibrate", "--model", path, "--data", dataset_dir,
                          "--out", tmp_path / "pred.csv"],
            "neutral": ["calibrate", "--model", model, "--data", dataset_dir,
                        "--out", tmp_path / "pred.csv", "--neutral-dir", neutral],
            "eval": ["eval", "--pred", path, "--data", dataset_dir,
                     "--out", tmp_path / "metrics.json"],
            "plot": ["plot", "--results", tmp_path],
            "gen_flags": ["gen", "--out", tmp_path / "gen", "--config", path,
                          "--nodes", "500", "--seed", "9"],
            "train": ["train", "--data", dataset_dir, "--out", model,
                      "--max-epochs", 3, "--patience", 3],
            "calibrate_random": ["calibrate", "--model", model, "--data",
                                 dataset_dir, "--out", tmp_path / "pred.csv",
                                 "--neutral-variant", "random"],
            "eval_split": ["eval", "--pred", tmp_path / "pred.csv", "--data",
                           dataset_dir, "--out", tmp_path / "metrics.json"],
        }[command]
        if command == "eval_split":
            rows = "".join(f"{i},0,1.0\n" for i in range(200))
            (tmp_path / "pred.csv").write_text("node_id,predicted_label,prob_0\n" + rows)
        assert run_cli(*argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err
        assert command != "train" or not model.exists()

    @pytest.mark.parametrize("flags, named", [
        (("--neutral-dir", "NEUTRAL", "--save-neutral", "SAVED"), "--save-neutral"),
        (("--neutral-dir", "NEUTRAL", "--neutral-seed", 5), "--neutral-seed"),
        (("--neutral-dir", "NEUTRAL", "--neutral-variant", "random"),
         "--neutral-variant"),
        (("--neutral-dir", "NEUTRAL", "--save-neutral", "SAVED", "--neutral-seed",
          5, "--neutral-variant", "random"),
         "--save-neutral, --neutral-seed, --neutral-variant cannot be used with "
         "--neutral-dir"),
        (("--variant", "none", "--save-neutral", "SAVED"),
         "--save-neutral cannot be used with --variant none"),
        # --variant none reads no neutral graph: a missing directory is
        # named as an ignored flag, not looked up
        (("--variant", "none", "--neutral-dir", "MISSING"),
         "--neutral-dir cannot be used with --variant none"),
        (("--variant", "none", "--neutral-seed", 5, "--neutral-variant", "random"),
         "--neutral-seed, --neutral-variant cannot be used with --variant none"),
    ], ids=["save_with_neutral_dir", "seed_with_neutral_dir",
            "variant_with_neutral_dir", "all_with_neutral_dir",
            "save_with_variant_none", "dir_with_variant_none",
            "seed_and_variant_with_variant_none"])
    def test_calibrate_flags_its_path_ignores(self, dataset_dir, tmp_path, capsys,
                                              flags, named):
        """A neutral-graph flag that the chosen calibration path would
        ignore is a config error (exit 2), before any file is written."""
        model, neutral = tmp_path / "model.json", tmp_path / "neutral"
        saved, pred = tmp_path / "saved", tmp_path / "pred.csv"
        save_checkpoint(init_params(ModelConfig(**CHECKPOINT["model_config"])),
                        model)
        assert run_cli("calibrate", "--model", model, "--data", dataset_dir,
                       "--out", tmp_path / "first.csv",
                       "--save-neutral", neutral) == 0
        paths = {"NEUTRAL": neutral, "SAVED": saved, "MISSING": tmp_path / "missing"}
        assert run_cli("calibrate", "--model", model, "--data", dataset_dir,
                       "--out", pred, *(paths.get(f, f) for f in flags)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not saved.exists() and not pred.exists()


HEAP_PROBE = """
import resource
from neubm.cli import keep_heap_resident
from neubm.datasets import SbmConfig, generate_sbm, stratified_split
from neubm.models import ModelConfig
from neubm.training import TrainConfig, train

keep_heap_resident()
g = generate_sbm(SbmConfig(num_classes=5, total_nodes=2000, rho=10,
                           p_intra=0.02, p_inter=0.006, feature_dim=16,
                           class_mean_separation=0.8, seed=2024))
split = stratified_split(g, 0.1, 0.1, 5, seed=0)
model = ModelConfig("gcn", 16, 32, 5, dropout=0.5, seed=0)
train(g, split, model, TrainConfig(max_epochs=2, patience=2, seed=0))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(g, split, model, TrainConfig(max_epochs=20, patience=20, seed=0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy sets glibc's mallopt thresholds")
def test_heap_policy_keeps_training_temporaries_resident():
    # with glibc's default thresholds each epoch's 512 KiB temporaries are
    # unmapped on free and faulted back in: hundreds of minor faults per
    # epoch at 2,000 nodes, against about none with the policy
    src = str(Path(neubm.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", HEAP_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    faults = int(out.stdout.split()[-1])
    assert faults / 20 < 10, f"{faults} minor faults in 20 epochs"


def test_main_applies_the_heap_policy(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "keep_heap_resident", lambda: calls.append(1))
    with pytest.raises(SystemExit):
        main(["--help"])
    assert calls == [1]
