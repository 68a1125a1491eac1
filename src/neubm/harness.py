"""Config-driven experiment runner: repeated seeds, k-fold splits, calibration
comparisons, ablations, and sensitivity sweeps, with machine-readable reports.

Each (seed, fold) pair trains exactly one model; every calibration spec,
ablation row, and diagnostic is computed post hoc from that model's logits,
so the method never requires retraining. Reports (aggregate.json, results.csv,
SVG charts) carry no wall-clock values, so identical configs produce
byte-identical reports; timestamps and timings live in records.jsonl.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .calibrate import CalibrationSpec, calibrate, check_bias_reduction
from .datasets import (
    NoiseSpec,
    SbmConfig,
    generate_sbm,
    inject_noise,
    kfold_splits,
    load_canonical,
)
from .errors import ConfigError, NeubmError, NumericError
from .graph import Graph, compute_dataset_stats
from .metrics import evaluate, mmd_rbf
from .models import ModelConfig, predict_logits
from .neutral import (
    NeutralConfig,
    construct_neutral,
    neutral_fidelity,
    neutral_logit_vector,
    train_rows,
)
from .training import TrainConfig, softmax, train

OUTPUT_ROOT_ENV = "NEUBM_OUTPUT_ROOT"
LAMBDA_GRID = (0.5, 0.75, 1.0, 1.25, 1.5)
MMD_DIAG_MAX_ROWS = 400  # per-class cap for the exploratory diagnostic

RUN_METADATA = {
    "stats_scope": "all_nodes",
    "neutral_logit_pooling": "mean",
    "feature_noise_semantics": "node-fraction, per-dimension std of the dataset",
    "structural_noise_semantics": "edge-fraction rewiring, edge count preserved",
    "aggregate_std": "population (divide by n)",
    "selection_metric": "validation f1_macro",
    "weight_init": "seeded Glorot uniform",
    "seed_derivation": "split=base+run+1000*fold; model=split+17; "
                       "dropout=split+29; neutral=neutral.seed+split",
    "kernels": "float64 numpy/scipy.sparse, sequential (bit-deterministic)",
}


@dataclass(frozen=True)
class ProtocolConfig:
    num_seeds: int = 5
    k_folds: int = 5
    train_frac: float = 0.1
    val_frac: float = 0.1
    min_per_class: int = 5

    def __post_init__(self):
        if self.num_seeds < 1 or self.k_folds < 1:
            raise ConfigError("num_seeds and k_folds must be >= 1")
        if self.train_frac + self.val_frac >= 1.0:
            raise ConfigError("train_frac + val_frac must be < 1")

    def to_dict(self) -> dict:
        return {
            "num_seeds": self.num_seeds,
            "k_folds": self.k_folds,
            "train_frac": self.train_frac,
            "val_frac": self.val_frac,
            "min_per_class": self.min_per_class,
        }


@dataclass(frozen=True)
class NoiseSweep:
    kind: str
    levels: tuple[float, ...]
    seed: int = 0

    def to_dict(self) -> dict:
        return {"kind": self.kind, "levels": list(self.levels), "seed": self.seed}


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str | SbmConfig
    model: dict = field(default_factory=dict)
    train: TrainConfig = TrainConfig()
    neutral: NeutralConfig = NeutralConfig()
    calibration: tuple[CalibrationSpec, ...] = (
        CalibrationSpec("none"),
        CalibrationSpec("subtract"),
    )
    protocol: ProtocolConfig = ProtocolConfig()
    noise: NoiseSweep | None = None
    rho_sweep: tuple[float, ...] | None = None
    output_dir: str = "runs/experiment"

    def to_dict(self, include_output_dir: bool = True) -> dict:
        d = {
            "dataset": (
                self.dataset
                if isinstance(self.dataset, str)
                else _sbm_to_dict(self.dataset)
            ),
            "model": dict(self.model),
            "train": self.train.to_dict(),
            "neutral": self.neutral.to_dict(),
            "calibration": [s.to_dict() for s in self.calibration],
            "protocol": self.protocol.to_dict(),
            "noise": self.noise.to_dict() if self.noise else None,
            "rho_sweep": list(self.rho_sweep) if self.rho_sweep else None,
        }
        if include_output_dir:
            d["output_dir"] = self.output_dir
        return d

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(include_output_dir=False), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _sbm_to_dict(cfg: SbmConfig) -> dict:
    return {
        "num_classes": cfg.num_classes,
        "total_nodes": cfg.total_nodes,
        "rho": cfg.rho,
        "p_intra": cfg.p_intra,
        "p_inter": cfg.p_inter,
        "feature_dim": cfg.feature_dim,
        "class_mean_separation": cfg.class_mean_separation,
        "feature_std": cfg.feature_std,
        "seed": cfg.seed,
    }


def load_experiment_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or a plain dict."""
    if isinstance(source, (str, Path)):
        raw = json.loads(Path(source).read_text())
    else:
        raw = dict(source)
    dataset = raw.get("dataset")
    if dataset is None:
        raise ConfigError("config needs a 'dataset' (path or generator settings)")
    if isinstance(dataset, dict):
        dataset = SbmConfig(**dataset)
    neutral_raw = dict(raw.get("neutral", {}))
    calibration = tuple(
        CalibrationSpec.from_dict(d) for d in raw.get("calibration", [])
    ) or (CalibrationSpec("none"), CalibrationSpec("subtract"))
    noise = raw.get("noise")
    if noise is not None:
        noise = NoiseSweep(
            kind=noise["kind"],
            levels=tuple(noise["levels"]),
            seed=noise.get("seed", 0),
        )
    return ExperimentConfig(
        dataset=dataset,
        model=dict(raw.get("model", {})),
        train=TrainConfig(**raw.get("train", {})),
        neutral=NeutralConfig(**neutral_raw),
        calibration=calibration,
        protocol=ProtocolConfig(**raw.get("protocol", {})),
        noise=noise,
        rho_sweep=tuple(raw["rho_sweep"]) if raw.get("rho_sweep") else None,
        output_dir=raw.get("output_dir", "runs/experiment"),
    )


def resolve_output_dir(output_dir: str) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    path = Path(output_dir)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


# ---------------------------------------------------------------------------
# records


@dataclass
class ResultRecord:
    config_hash: str
    seed: int
    fold_id: int
    group: str
    row_id: str
    spec: dict
    sweep_variable: str | None
    sweep_value: float | None
    status: str  # "ok" | "failed"
    metrics: dict | None
    train_summary: dict
    bias: dict | None
    error: str | None
    timestamp: str
    derived_seeds: dict | None = None
    neutral_fidelity: dict | None = None

    def key(self) -> tuple:
        return (
            self.config_hash, self.seed, self.fold_id, self.group,
            self.row_id, self.sweep_variable, self.sweep_value,
        )

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# core execution


def _load_base_dataset(config: ExperimentConfig) -> Graph:
    if isinstance(config.dataset, str):
        return load_canonical(config.dataset)
    return generate_sbm(config.dataset)


def _resolve_model_config(config: ExperimentConfig, graph: Graph, seed: int) -> ModelConfig:
    model = dict(config.model)
    model.setdefault("architecture", "gcn")
    model.setdefault("hidden_dim", 64)
    model["input_dim"] = model.get("input_dim", graph.num_features)
    model["num_classes"] = model.get("num_classes", graph.num_classes)
    model["seed"] = seed
    return ModelConfig(**model)


@dataclass(frozen=True)
class AblationRow:
    group: str
    row_id: str
    spec: CalibrationSpec
    neutral_variant: str | None  # None = zero reference ("no_neutral")


def default_rows(specs) -> list[AblationRow]:
    return [
        AblationRow("default", s.spec_id, s, "mean_cov" if s.variant != "none" else None)
        for s in specs
    ]


def ablation_rows() -> list[AblationRow]:
    rows = []
    for variant in ("none", "subtract", "normalize"):
        spec = CalibrationSpec(variant) if variant != "none" else CalibrationSpec("none")
        rows.append(
            AblationRow("calibration_variant", f"cal={variant}", spec,
                        "mean_cov" if variant != "none" else None)
        )
    for lam in LAMBDA_GRID:
        rows.append(
            AblationRow(
                "calibration_variant", f"cal=scale({lam:g})",
                CalibrationSpec("scale", lam=lam), "mean_cov",
            )
        )
    for nv in ("mean_cov", "random", "class_balanced"):
        rows.append(
            AblationRow("neutral_construction", f"neutral={nv}",
                        CalibrationSpec("subtract"), nv)
        )
    rows.append(
        AblationRow("neutral_construction", "neutral=none",
                    CalibrationSpec("subtract"), None)
    )
    for pos in ("logits", "post_softmax"):
        rows.append(
            AblationRow("position", f"pos={pos}",
                        CalibrationSpec("subtract", pos), "mean_cov")
        )
    return rows


def _make_refresh_hook(source, stats, neutral_config, neutral_seed):
    """Validation-selection hook: rebuild the reference every k epochs and
    score validation on subtraction-calibrated logits."""
    k = neutral_config.refresh_every
    state: dict = {}

    def hook(epoch, params, logits):
        block = epoch // k
        if state.get("block") != block:
            cfg = replace(neutral_config, seed=neutral_seed + block)
            state["neutral"] = construct_neutral(stats, cfg, labeled_source=source)
            state["block"] = block
        vec = neutral_logit_vector(params, state["neutral"])
        return logits - vec[None, :]

    return hook


def _run_single(
    graph: Graph,
    config: ExperimentConfig,
    rows: list[AblationRow],
    run_index: int,
    fold,
    sweep_variable,
    sweep_value,
    config_hash: str,
) -> list[ResultRecord]:
    """Train one model for (run, fold) and evaluate every row post hoc."""
    base_seed = config.train.seed
    split_seed = base_seed + run_index + 1000 * (fold.fold_id or 0)
    model_config = _resolve_model_config(config, graph, seed=split_seed + 17)
    train_config = replace(config.train, seed=split_seed + 29)
    neutral_seed = config.neutral.seed + split_seed
    derived_seeds = {
        "split": split_seed, "model": model_config.seed,
        "dropout": train_config.seed, "neutral": neutral_seed,
    }

    hook = None
    masks = fold.to_masks(graph.num_nodes)
    stats = compute_dataset_stats(graph, scope="all_nodes")
    source = train_rows(graph, masks["train"])
    if config.neutral.refresh_every != "never":
        hook = _make_refresh_hook(source, stats, config.neutral, neutral_seed)

    start = time.perf_counter()
    try:
        params, report = train(graph, fold, model_config, train_config,
                               val_logits_transform=hook)
    except NeubmError as exc:
        # training failed: every row of this (seed, fold) becomes a failed
        # record so the sweep continues and aggregates mark the gap
        summary = {"wall_time_seconds": time.perf_counter() - start}
        return [
            ResultRecord(
                config_hash=config_hash, seed=run_index,
                fold_id=fold.fold_id or 0, group=row.group, row_id=row.row_id,
                spec=row.spec.to_dict(), sweep_variable=sweep_variable,
                sweep_value=sweep_value, status="failed", metrics=None,
                train_summary=summary, bias=None,
                error=f"{type(exc).__name__}: {exc}", timestamp=_now(),
                derived_seeds=derived_seeds,
            )
            for row in rows
        ]
    train_summary = {
        "epochs_run": report.epochs_run,
        "best_epoch": report.best_epoch,
        "final_loss": report.loss_curve[-1] if report.loss_curve else None,
        # val_metric_curve[e] is the score after epoch e (0 = before training)
        "best_val_metric": report.val_metric_curve[report.best_epoch],
        "wall_time_seconds": time.perf_counter() - start,
    }

    logits = predict_logits(params, graph)
    test_mask = masks["test"]
    labels = graph.labels
    uncal_probs = softmax(logits)
    majority = int(np.bincount(labels[labels >= 0]).argmax())

    neutral_vectors: dict[str | None, np.ndarray] = {None: np.zeros(logits.shape[1])}
    fidelity: dict[str | None, dict | None] = {None: None}

    def vector_for(variant):
        if variant not in neutral_vectors:
            cfg = replace(config.neutral, construction_variant=variant,
                          seed=neutral_seed)
            neutral = construct_neutral(stats, cfg, labeled_source=source)
            fidelity[variant] = neutral_fidelity(neutral)
            neutral_vectors[variant] = neutral_logit_vector(params, neutral)
        return neutral_vectors[variant]

    mmd_before: dict = {}  # filled by the first row that is calibrated
    records = []
    for row in rows:
        timestamp = _now()
        try:
            vec = vector_for(row.neutral_variant)
            out = calibrate(logits, vec, row.spec)
            metrics = evaluate(
                out.predicted_labels, labels, mask=test_mask,
                num_classes=graph.num_classes,
            )
            bias = _bias_diagnostics(
                logits, uncal_probs, out, vec, labels, test_mask, majority,
                row.spec, mmd_before,
            )
            records.append(ResultRecord(
                config_hash=config_hash, seed=run_index,
                fold_id=fold.fold_id or 0, group=row.group, row_id=row.row_id,
                spec=row.spec.to_dict(), sweep_variable=sweep_variable,
                sweep_value=sweep_value, status="ok",
                metrics=metrics.to_dict(), train_summary=train_summary,
                bias=bias, error=None, timestamp=timestamp,
                derived_seeds=derived_seeds,
                neutral_fidelity=fidelity[row.neutral_variant],
            ))
        except NeubmError as exc:
            records.append(ResultRecord(
                config_hash=config_hash, seed=run_index,
                fold_id=fold.fold_id or 0, group=row.group, row_id=row.row_id,
                spec=row.spec.to_dict(), sweep_variable=sweep_variable,
                sweep_value=sweep_value, status="failed", metrics=None,
                train_summary=train_summary, bias=None,
                error=f"{type(exc).__name__}: {exc}", timestamp=timestamp,
                derived_seeds=derived_seeds,
            ))
    return records


def _bias_diagnostics(logits, uncal_probs, out, vec, labels, test_mask, majority,
                      spec, mmd_before):
    report = check_bias_reduction(
        uncal_probs[test_mask], out.probabilities[test_mask],
        labels[test_mask], majority,
        logits_before=logits[test_mask],
        logits_after=(
            out.corrected_logits[test_mask]
            if out.corrected_logits is not None else None
        ),
    )
    ordering = report.minority_shift_exceeds_majority(vec)
    if ordering is False and spec.variant == "subtract":
        # corrected = L - v makes delta = -v, so for subtraction a violated
        # ordering means the implementation broke; other variants add
        # data-dependent terms and carry no such guarantee
        raise NumericError("per-class shift ordering violated")
    bias = {
        "majority_class": report.majority_class,
        "majority_prob_before": report.majority_prob_before,
        "majority_prob_after": report.majority_prob_after,
        "majority_prob_decreased": report.majority_prob_decreased,
        "delta_per_class": list(report.delta_per_class or []) or None,
        "min_shift_exceeds_maj": ordering,
        "neutral_vector": [float(x) for x in vec],
    }
    if spec.variant != "none":
        bias.update(_mmd_diagnostic(uncal_probs, out.probabilities, labels,
                                    test_mask, mmd_before))
    return bias


def _mmd_diagnostic(probs_before, probs_after, labels, test_mask, before):
    """Exploratory: probability-space distance between the two largest test
    classes, before/after calibration. Not an invariant.

    `before` caches the pre-calibration distance: it depends only on the
    uncalibrated probabilities and the test labels, so the rows of one
    (seed, fold) share one dict and compute it once. A failed computation
    stores nothing, so every later row fails the same way.
    """
    test_labels = labels[test_mask]
    counts = np.bincount(test_labels[test_labels >= 0])
    top = np.argsort(counts)[::-1]
    if len(top) < 2 or counts[top[1]] == 0:
        return {}
    c1, c2 = int(top[0]), int(top[1])
    sel = np.flatnonzero(test_mask)

    def rows(probs, c):
        idx = sel[test_labels == c][:MMD_DIAG_MAX_ROWS]
        return probs[idx]

    if "mmd_prob_before" not in before:
        before["mmd_prob_before"] = mmd_rbf(rows(probs_before, c1),
                                            rows(probs_before, c2))
    return {
        "mmd_classes": [c1, c2],
        "mmd_prob_before": before["mmd_prob_before"],
        "mmd_prob_after": mmd_rbf(rows(probs_after, c1), rows(probs_after, c2)),
    }


def _execute(
    config: ExperimentConfig,
    rows: list[AblationRow],
    sweep_points: list[tuple[str | None, float | None, Graph]],
) -> list[ResultRecord]:
    config_hash = config.config_hash()
    records = []
    for sweep_variable, sweep_value, graph in sweep_points:
        # one fold family per sweep point: the splits are a property of the
        # data; repeated runs vary the training randomness on top of them
        folds = kfold_splits(
            graph, config.protocol.k_folds,
            config.protocol.train_frac, config.protocol.val_frac,
            config.protocol.min_per_class,
            seed=config.train.seed,
        )
        for run_index in range(config.protocol.num_seeds):
            for fold in folds:
                records.extend(_run_single(
                    graph, config, rows, run_index, fold,
                    sweep_variable, sweep_value, config_hash,
                ))
    return records


# ---------------------------------------------------------------------------
# aggregation

METRIC_FIELDS = ("f1_macro", "f1_weighted", "f1_micro", "accuracy")


def aggregate_records(records: list[ResultRecord | dict]) -> list[dict]:
    """Mean and population std per (group, sweep point, row); stable order."""
    dicts = [r.to_dict() if isinstance(r, ResultRecord) else r for r in records]
    groups: dict[tuple, list[dict]] = {}
    for r in dicts:
        key = (r["group"], r["sweep_variable"], r["sweep_value"], r["row_id"])
        groups.setdefault(key, []).append(r)

    def sort_key(k):
        group, sweep_variable, sweep_value, row_id = k
        return (
            str(group), str(sweep_variable),
            float(sweep_value) if sweep_value is not None else float("-inf"),
            str(row_id),
        )

    rows = []
    for key in sorted(groups, key=sort_key):
        group, sweep_variable, sweep_value, row_id = key
        cell = groups[key]
        ok = [r for r in cell if r["status"] == "ok"]
        entry = {
            "group": group,
            "sweep_variable": sweep_variable,
            "sweep_value": sweep_value,
            "row_id": row_id,
            "n_runs": len(cell),
            "n_completed": len(ok),
            "incomplete": len(ok) < len(cell),
            "metrics": {},
        }
        for fieldname in METRIC_FIELDS:
            values = [r["metrics"][fieldname] for r in ok]
            if values:
                mean = float(np.mean(values))
                std = float(np.std(values))  # population
                entry["metrics"][fieldname] = {
                    "mean": mean,
                    "std": std,
                    "formatted": f"{mean:.4f} ± {std:.4f}",
                }
            else:
                entry["metrics"][fieldname] = None
        if ok and ok[0]["bias"]:
            decreased = [r["bias"]["majority_prob_decreased"] for r in ok]
            entry["majority_prob_decreased_fraction"] = float(np.mean(decreased))
        rows.append(entry)
    return rows


# ---------------------------------------------------------------------------
# reports


def emit_report(
    records: list[ResultRecord | dict],
    output_dir,
    config: ExperimentConfig | None = None,
    formats: tuple[str, ...] = ("json", "csv", "svg"),
) -> dict[str, Path]:
    """Write aggregate.json / results.csv / sweep SVG charts.

    Byte-deterministic given identical records: no wall-clock values are
    included (those stay in records.jsonl).
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    aggregates = aggregate_records(records)
    written: dict[str, Path] = {}

    if "json" in formats:
        payload = {
            "metadata": {
                "config_hash": config.config_hash() if config else None,
                "decisions": RUN_METADATA,
            },
            "aggregates": aggregates,
        }
        path = out / "aggregate.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written["json"] = path

    if "csv" in formats:
        path = out / "results.csv"
        header = [
            "group", "sweep_variable", "sweep_value", "row_id",
            "n_runs", "n_completed",
        ]
        for fieldname in METRIC_FIELDS:
            header += [f"{fieldname}_mean", f"{fieldname}_std", f"{fieldname}_fmt"]
        lines = [",".join(header)]
        for row in aggregates:
            cells = [
                str(row["group"]),
                str(row["sweep_variable"] or ""),
                "" if row["sweep_value"] is None else f"{row['sweep_value']:g}",
                str(row["row_id"]),
                str(row["n_runs"]), str(row["n_completed"]),
            ]
            for fieldname in METRIC_FIELDS:
                m = row["metrics"][fieldname]
                if m is None:
                    cells += ["", "", ""]
                else:
                    cells += [
                        f"{m['mean']:.17g}", f"{m['std']:.17g}",
                        f"\"{m['formatted']}\"",
                    ]
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n")
        written["csv"] = path

    if "svg" in formats:
        from .plotting import line_chart_svg

        sweeps = sorted({
            row["sweep_variable"] for row in aggregates if row["sweep_variable"]
        })
        for sweep_variable in sweeps:
            rows = [r for r in aggregates if r["sweep_variable"] == sweep_variable]
            xs = sorted({r["sweep_value"] for r in rows})
            series: dict[str, list] = {}
            for row_id in sorted({r["row_id"] for r in rows}):
                by_x = {
                    r["sweep_value"]: (
                        r["metrics"]["f1_macro"]["mean"]
                        if r["metrics"]["f1_macro"] else None
                    )
                    for r in rows if r["row_id"] == row_id
                }
                series[row_id] = [by_x.get(x) for x in xs]
            path = out / f"sweep_{sweep_variable}.svg"
            line_chart_svg(
                path, xs, series,
                title=f"f1_macro vs {sweep_variable}",
                xlabel=sweep_variable, ylabel="f1_macro",
            )
            written[f"svg:{sweep_variable}"] = path
    return written


def write_records(records: list[ResultRecord], output_dir) -> Path:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "records.jsonl"
    with path.open("w") as fh:
        for r in records:
            fh.write(json.dumps(r.to_dict(), sort_keys=True) + "\n")
    return path


def read_records(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def _write_config(config: ExperimentConfig, out: Path) -> None:
    payload = {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "decisions": RUN_METADATA,
    }
    (out / "config.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _completed(out: Path, config: ExperimentConfig) -> bool:
    marker = out / "config.json"
    if not marker.exists() or not (out / "aggregate.json").exists():
        return False
    try:
        saved = json.loads(marker.read_text())
    except json.JSONDecodeError:
        return False
    return saved.get("config_hash") == config.config_hash()


# ---------------------------------------------------------------------------
# entry points


def run_experiment(config: ExperimentConfig, force: bool = False) -> list[dict]:
    """seeds x folds x calibration specs on the configured dataset.

    Idempotent: a completed run (matching config hash in output_dir) is not
    recomputed unless force=True. Returns the aggregate rows.
    """
    out = resolve_output_dir(config.output_dir)
    if not force and _completed(out, config):
        return json.loads((out / "aggregate.json").read_text())["aggregates"]
    graph = _load_base_dataset(config)
    rows = default_rows(config.calibration)
    records = _execute(config, rows, [(None, None, graph)])
    out.mkdir(parents=True, exist_ok=True)
    write_records(records, out)
    emit_report(records, out, config=config)
    _write_config(config, out)
    return aggregate_records(records)


def run_ablations(config: ExperimentConfig, force: bool = False) -> list[dict]:
    """Neutral-construction, calibration-variant, and position ablations,
    all evaluated post hoc on the same trained models."""
    out = resolve_output_dir(config.output_dir)
    if not force and _completed(out, config):
        return json.loads((out / "aggregate.json").read_text())["aggregates"]
    graph = _load_base_dataset(config)
    records = _execute(config, ablation_rows(), [(None, None, graph)])
    out.mkdir(parents=True, exist_ok=True)
    write_records(records, out)
    emit_report(records, out, config=config)
    _write_config(config, out)
    return aggregate_records(records)


def run_sensitivity(config: ExperimentConfig, force: bool = False) -> list[dict]:
    """Noise and/or imbalance-ratio sweeps; one aggregate per sweep point."""
    if config.noise is None and config.rho_sweep is None:
        raise ConfigError("sensitivity run needs a noise sweep or rho_sweep")
    out = resolve_output_dir(config.output_dir)
    if not force and _completed(out, config):
        return json.loads((out / "aggregate.json").read_text())["aggregates"]

    sweep_points: list[tuple[str | None, float | None, Graph]] = []
    if config.noise is not None:
        base = _load_base_dataset(config)
        for level in config.noise.levels:
            noisy = inject_noise(
                base, NoiseSpec(config.noise.kind, level, seed=config.noise.seed)
            )
            sweep_points.append((f"noise_{config.noise.kind}", float(level), noisy))
    if config.rho_sweep is not None:
        if not isinstance(config.dataset, SbmConfig):
            raise ConfigError("rho_sweep requires a generated dataset")
        for rho in config.rho_sweep:
            regenerated = generate_sbm(replace(config.dataset, rho=float(rho)))
            sweep_points.append(("rho", float(rho), regenerated))

    rows = default_rows(config.calibration)
    records = _execute(config, rows, sweep_points)
    out.mkdir(parents=True, exist_ok=True)
    write_records(records, out)
    emit_report(records, out, config=config)
    _write_config(config, out)
    return aggregate_records(records)
