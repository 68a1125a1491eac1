import json

import pytest

from neubm.cli import main
from neubm.datasets import load_canonical


def run_cli(*args):
    return main([str(a) for a in args])


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
        assert (dataset_dir / "masks.json").exists()

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

    def test_scale_variant_requires_lambda(self, dataset_dir, tmp_path):
        model = tmp_path / "model.json"
        run_cli("train", "--data", dataset_dir, "--out", model, "--hidden", 8,
                "--max-epochs", 10, "--patience", 10, "--train-frac", 0.2,
                "--val-frac", 0.2, "--min-per-class", 3)
        code = run_cli("calibrate", "--model", model, "--data", dataset_dir,
                       "--out", tmp_path / "p.csv", "--variant", "scale")
        assert code == 2  # config error


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
        assert self.train(dataset_dir, tmp_path / "again.json") == 3  # data error

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
        assert run_cli("sweep", "--config", cfg) == 0
        svg = tmp_path / "out" / "sweep_noise_feature.svg"
        assert svg.exists()
        svg.unlink()
        assert run_cli("plot", "--results", tmp_path / "out") == 0
        assert svg.exists()

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
         "'positon'"),
        ('{"dataset": {"num_classes": 3,', "bad.json"),
        (None, "bad.json"),
    ], ids=["train_key", "dataset_key", "noise_without_kind", "model_key",
            "top_level_key", "calibration_key", "malformed_json", "missing_file"])
    def test_config_file_errors_exit_code(self, tmp_path, capsys, content, named):
        """A bad config file is a config error (exit 2) naming the section
        or file, not a traceback."""
        if isinstance(content, dict):
            path = self.exp_config(tmp_path, **content)
        else:
            path = tmp_path / "bad.json"
            if content is not None:
                path.write_text(content)
        assert run_cli("experiment", "--config", path) == 2
        assert named in capsys.readouterr().err
