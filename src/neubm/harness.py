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
from dataclasses import asdict, dataclass, field, fields, replace
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


@dataclass(frozen=True)
class NoiseSweep:
    kind: str
    levels: tuple[float, ...]
    seed: int = 0


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

    def to_dict(self) -> dict:
        d = asdict(self)
        # a spec writes its own keys: "lambda", omitted when unset
        d["calibration"] = [s.to_dict() for s in self.calibration]
        d["rho_sweep"] = list(self.rho_sweep) if self.rho_sweep else None
        return d

    def config_hash(self) -> str:
        """Hash of everything but output_dir: where a run is written does
        not change what it computes."""
        d = self.to_dict()
        del d["output_dir"]
        payload = json.dumps(d, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def load_experiment_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or a plain dict.

    Malformed JSON, an unknown top-level key, and an unknown or missing key
    in a section or calibration spec raise ConfigError naming the file,
    section or key.
    """
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {source}: {exc}") from None
    else:
        raw = dict(source)
    unknown = sorted(set(raw) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ConfigError(f"config: unknown keys {unknown}")
    dataset = raw.get("dataset")
    if dataset is None:
        raise ConfigError("config needs a 'dataset' (path or generator settings)")
    if isinstance(dataset, dict):
        dataset = _section("dataset", SbmConfig, dataset)
    model = dict(raw.get("model", {}))
    unknown = sorted(set(model) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise ConfigError(f"config section 'model': unknown keys {unknown}")
    calibration = tuple(
        CalibrationSpec.from_dict(d) for d in raw.get("calibration", [])
    ) or (CalibrationSpec("none"), CalibrationSpec("subtract"))
    noise = raw.get("noise")
    if noise is not None:
        noise = _section("noise", NoiseSweep, noise)
        noise = replace(noise, levels=tuple(noise.levels))
    return ExperimentConfig(
        dataset=dataset,
        model=model,
        train=_section("train", TrainConfig, raw.get("train", {})),
        neutral=_section("neutral", NeutralConfig, raw.get("neutral", {})),
        calibration=calibration,
        protocol=_section("protocol", ProtocolConfig, raw.get("protocol", {})),
        noise=noise,
        rho_sweep=tuple(raw["rho_sweep"]) if raw.get("rho_sweep") else None,
        output_dir=raw.get("output_dir", "runs/experiment"),
    )


def _section(name: str, cls, values):
    try:
        return cls(**values)
    except TypeError as exc:  # unknown or missing key, or a non-dict section
        raise ConfigError(f"config section {name!r}: {exc}") from None


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
    train_summary: dict
    timestamp: str
    metrics: dict | None = None
    bias: dict | None = None
    error: str | None = None
    derived_seeds: dict | None = None
    neutral_fidelity: dict | None = None

    def key(self) -> tuple:
        return (
            self.config_hash, self.seed, self.fold_id, self.group,
            self.row_id, self.sweep_variable, self.sweep_value,
        )

    def to_dict(self) -> dict:
        # shallow on purpose: asdict would deep-copy every nested dict and
        # list, about 300x slower, and a run converts each record 3 times
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

    def record(row, status, summary, timestamp, **extra):
        return ResultRecord(
            config_hash=config_hash, seed=run_index,
            fold_id=fold.fold_id or 0, group=row.group, row_id=row.row_id,
            spec=row.spec.to_dict(), sweep_variable=sweep_variable,
            sweep_value=sweep_value, status=status, train_summary=summary,
            timestamp=timestamp, derived_seeds=derived_seeds, **extra,
        )

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
            record(row, "failed", summary, _now(),
                   error=f"{type(exc).__name__}: {exc}")
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

    mmd_memo: dict = {}  # MMD per pair of compared sample sets
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
                row.spec, mmd_memo,
            )
            records.append(record(
                row, "ok", train_summary, timestamp,
                metrics=metrics.to_dict(), bias=bias,
                neutral_fidelity=fidelity[row.neutral_variant],
            ))
        except NeubmError as exc:
            records.append(record(row, "failed", train_summary, timestamp,
                                  error=f"{type(exc).__name__}: {exc}"))
    return records


def _bias_diagnostics(logits, uncal_probs, out, vec, labels, test_mask, majority,
                      spec, mmd_memo):
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
                                    test_mask, mmd_memo))
    return bias


def _mmd_diagnostic(probs_before, probs_after, labels, test_mask, memo):
    """Exploratory: probability-space distance between the two largest test
    classes, before/after calibration. Not an invariant.

    The rows of one (seed, fold) share `memo`, keyed by the bytes of the
    two compared sample sets: the pre-calibration distance, and every row
    whose probabilities equal another's bit for bit (scale(1) and
    subtraction, say), is computed once. A failed computation stores
    nothing, so every later row with the same samples fails the same way.
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

    def mmd(probs):
        x, y = rows(probs, c1), rows(probs, c2)
        key = (x.tobytes(), y.tobytes())
        if key not in memo:
            memo[key] = mmd_rbf(x, y)
        return memo[key]

    return {
        "mmd_classes": [c1, c2],
        "mmd_prob_before": mmd(probs_before),
        "mmd_prob_after": mmd(probs_after),
    }


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


def _write_config(config: ExperimentConfig, command: str, out: Path) -> None:
    payload = {
        "command": command,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "decisions": RUN_METADATA,
    }
    (out / "config.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _completed(out: Path, config: ExperimentConfig, command: str) -> bool:
    marker = out / "config.json"
    if not marker.exists() or not (out / "aggregate.json").exists():
        return False
    try:
        saved = json.loads(marker.read_text())
    except json.JSONDecodeError:
        return False
    return (saved.get("config_hash") == config.config_hash()
            and saved.get("command") == command)


# ---------------------------------------------------------------------------
# entry points


def _run(
    command: str,
    config: ExperimentConfig,
    rows: list[AblationRow],
    sweep_points,
    force: bool,
) -> list[dict]:
    """Train and evaluate every (sweep point, seed, fold), then write
    records.jsonl, the reports and config.json. Returns the aggregate rows.

    Idempotent: an output dir completed by the same command on a config with
    the same hash is not recomputed unless force=True. `sweep_points()`
    yields (sweep_variable, sweep_value, graph) and is called only when the
    run goes ahead, so a completed run loads no data.
    """
    out = resolve_output_dir(config.output_dir)
    if not force and _completed(out, config, command):
        return json.loads((out / "aggregate.json").read_text())["aggregates"]
    config_hash = config.config_hash()
    protocol = config.protocol
    records = []
    for sweep_variable, sweep_value, graph in sweep_points():
        # one fold family per sweep point: the splits are a property of the
        # data; repeated runs vary the training randomness on top of them
        folds = kfold_splits(
            graph, protocol.k_folds, protocol.train_frac, protocol.val_frac,
            protocol.min_per_class, seed=config.train.seed,
        )
        for run_index in range(protocol.num_seeds):
            for fold in folds:
                records.extend(_run_single(
                    graph, config, rows, run_index, fold,
                    sweep_variable, sweep_value, config_hash,
                ))
    write_records(records, out)
    emit_report(records, out, config=config)
    _write_config(config, command, out)
    return aggregate_records(records)


def run_experiment(config: ExperimentConfig, force: bool = False) -> list[dict]:
    """seeds x folds x calibration specs on the configured dataset."""
    return _run("experiment", config, default_rows(config.calibration),
                lambda: [(None, None, _load_base_dataset(config))], force)


def run_ablations(config: ExperimentConfig, force: bool = False) -> list[dict]:
    """Neutral-construction, calibration-variant, and position ablations,
    all evaluated post hoc on the same trained models."""
    return _run("ablate", config, ablation_rows(),
                lambda: [(None, None, _load_base_dataset(config))], force)


def run_sensitivity(config: ExperimentConfig, force: bool = False) -> list[dict]:
    """Noise and/or imbalance-ratio sweeps; one aggregate per sweep point."""
    if config.noise is None and config.rho_sweep is None:
        raise ConfigError("sensitivity run needs a noise sweep or rho_sweep")
    if config.rho_sweep is not None and not isinstance(config.dataset, SbmConfig):
        raise ConfigError("rho_sweep requires a generated dataset")

    def sweep_points():
        noise = config.noise
        if noise is not None:
            base = _load_base_dataset(config)
            for level in noise.levels:
                noisy = inject_noise(base, NoiseSpec(noise.kind, level, seed=noise.seed))
                yield f"noise_{noise.kind}", float(level), noisy
        for rho in config.rho_sweep or ():
            regenerated = generate_sbm(replace(config.dataset, rho=float(rho)))
            yield "rho", float(rho), regenerated

    return _run("sweep", config, default_rows(config.calibration), sweep_points, force)
