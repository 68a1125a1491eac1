"""Config-driven experiment runner: repeated seeds, k-fold splits, calibration
comparisons, ablations, and sensitivity sweeps, with machine-readable reports.

Each (seed, fold) pair is one job, run in two phases. The fit phase trains
exactly one model (its refresh hook, if any, draws neutral graphs from the
train rows). The score phase computes every calibration spec, ablation row
and diagnostic post hoc from that model's test logits, so the method never
requires retraining; the bias diagnostic's majority class comes from the
train labels, so no test label reaches it. Reports (aggregate.json,
results.csv, SVG charts) carry no wall-clock values, so identical configs
produce byte-identical reports; timestamps and timings live in records.jsonl.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from functools import lru_cache, partial
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
    sbm_class_sizes,
)
from .errors import (
    ConfigError,
    NeubmError,
    NumericError,
    build,
    check_finite,
    finite,
    read_json,
    read_lines,
)
from .graph import Graph, compute_dataset_stats
from .metrics import evaluate, mmd_rbf
from .models import ModelConfig, predict_logits
from .neutral import (
    RETIRED_CONFIG_KEYS,
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
MODEL_DEFAULTS = {"architecture": "gcn", "hidden_dim": 64}

RUN_METADATA = {
    "stats_scope": "all_nodes",
    "neutral_logit_pooling": "mean",
    "feature_noise_semantics": "node-fraction, per-dimension std of the dataset",
    "structural_noise_semantics": "edge-fraction rewiring, edge count preserved",
    "aggregate_std": "population (divide by n)",
    "selection_metric": "validation f1_macro",
    "weight_init": "seeded Glorot uniform",
    "seed_derivation": "fold f, run index i, epoch e, refresh block b: "
                       "split=train.seed+f; run=train.seed+i+1000*f; model=run+17; "
                       "dropout=run+29; mask=dropout*1_000_003+e; "
                       "neutral=neutral.seed+run; refresh=neutral+b",
    "dropout_mask": "entry kept iff u < keep = 1 - dropout, exactly: the mask "
                    "seed's generator gives u's base-256 digits as raw bytes, "
                    "byte j of 64-bit word w (least significant first) for "
                    "entry 8w+j in C order; entries tied with keep's digit "
                    "read one more byte each, in index order, and a tie on "
                    "its last digit drops; kept entries scaled by 1/keep",
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
        check_finite(self, "train_frac", "val_frac")
        if self.num_seeds < 1 or self.k_folds < 1:
            raise ConfigError("num_seeds and k_folds must be >= 1")
        if min(self.train_frac, self.val_frac) < 0:
            raise ConfigError("train_frac and val_frac must be >= 0")
        if self.train_frac + self.val_frac >= 1.0:
            raise ConfigError("train_frac + val_frac must be < 1")

    def check_split(self, split) -> None:
        """Raise ConfigError if a split drawn with these fractions leaves a
        part empty, which would fail only after a model is trained."""
        if empty := split.empty_parts():
            raise ConfigError(
                f"the split leaves the {' and '.join(empty)} part empty "
                f"(train_frac={self.train_frac}, val_frac={self.val_frac})")


def _check_distinct(name, points) -> None:
    """Points compare as floats: a repeat would merge into one aggregate cell."""
    if len({float(p) for p in points}) < len(points):
        raise ConfigError(f"{name} repeats a point: {list(points)}")


@dataclass(frozen=True)
class NoiseSweep:
    kind: str
    levels: tuple[float, ...]
    seed: int = 0

    def __post_init__(self):
        # every sweep point, checked before any data is made or model trained
        if not self.levels:
            raise ConfigError("levels must list at least one noise level")
        _check_distinct("levels", self.levels)
        for level in self.levels:
            NoiseSpec(self.kind, level, self.seed)


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

    def __post_init__(self):
        if keys := sorted(set(self.model) & {"input_dim", "num_classes", "seed"}):
            raise ConfigError(f"model keys {keys} come from the graph and train.seed")
        dims = {"input_dim": 1, "num_classes": 1}  # the graph's, at run time
        build("model", ModelConfig, {**MODEL_DEFAULTS, **self.model, **dims}, ConfigError)
        if not self.calibration:
            raise ConfigError("calibration must list at least one spec")
        # a repeated id would merge into one aggregate cell
        ids = [s.spec_id for s in self.calibration]
        if repeated := sorted({i for i in ids if ids.count(i) > 1}):
            raise ConfigError(f"calibration repeats spec ids {repeated}")
        # every rho point, checked before any data is made or model trained
        _check_distinct("rho_sweep", self.rho_sweep or ())
        for rho in self.rho_sweep or ():
            if not isinstance(self.dataset, SbmConfig):
                raise ConfigError("rho_sweep requires a generated dataset")
            sbm_class_sizes(replace(self.dataset, rho=rho))

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
        # retired fields are hashed at the one value each ever had, which
        # keeps every config's hash, and so aggregate.json, as it was
        d["train"]["selection_metric"] = "f1_macro"
        d["neutral"].update(RETIRED_CONFIG_KEYS)
        payload = json.dumps(d, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def load_experiment_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or a plain dict; any
    fault in it raises ConfigError naming the section, the key and the file."""
    raw, file = _read_config(source)
    if isinstance(raw.get("calibration"), list):  # JSON "lambda" is field "lam"
        raw["calibration"] = [
            {("lam" if k == "lambda" else k): v for k, v in spec.items()}
            if isinstance(spec, dict) else spec
            for spec in raw["calibration"]
        ]
    if raw.get("rho_sweep") in ([], ()):  # only an empty list means no sweep
        raw["rho_sweep"] = None
    return build("config", ExperimentConfig, raw, ConfigError, file)


def load_dataset_config(source) -> SbmConfig:
    """Generator settings (JSON file or dict), checked as a config's 'dataset'."""
    raw, file = _read_config(source)
    return build("dataset", SbmConfig, raw, ConfigError, file)


def _read_config(source) -> tuple[dict, str | Path | None]:
    """The config as a dict, and the file it came from (None for a dict)."""
    if isinstance(source, (str, Path)):
        return read_json(source, "config", ConfigError), source
    return dict(source), None


def resolve_output_dir(output_dir: str) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    path = Path(output_dir)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


# ---------------------------------------------------------------------------
# core execution


def _load_base_dataset(config: ExperimentConfig) -> Graph:
    if isinstance(config.dataset, str):
        return load_canonical(config.dataset)
    return generate_sbm(config.dataset)


def _resolve_model_config(config: ExperimentConfig, graph: Graph, seed: int) -> ModelConfig:
    return ModelConfig(**{**MODEL_DEFAULTS, **config.model}, input_dim=graph.num_features,
                       num_classes=graph.num_classes, seed=seed)


@dataclass(frozen=True)
class AblationRow:
    group: str
    row_id: str
    spec: CalibrationSpec
    neutral_variant: str | None  # None = zero reference ("no_neutral")


def default_rows(config: ExperimentConfig) -> list[AblationRow]:
    """One row per calibration spec; the calibrated rows use the configured
    neutral construction variant."""
    variant = config.neutral.construction_variant
    return [
        AblationRow("default", s.spec_id, s, variant if s.variant != "none" else None)
        for s in config.calibration
    ]


def ablation_rows() -> list[AblationRow]:
    rows = []
    for variant in ("none", "subtract", "normalize"):
        rows.append(AblationRow("calibration_variant", f"cal={variant}",
                                CalibrationSpec(variant),
                                "mean_cov" if variant != "none" else None))
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


def _job_seeds(config: ExperimentConfig, run_index: int, fold_id: int) -> dict:
    """The seeds of run ``run_index`` on fold ``fold_id``, by the rule that
    RUN_METADATA["seed_derivation"] states; training derives the mask seeds
    from "dropout", and the refresh hook its blocks' from "neutral"."""
    run = config.train.seed + run_index + 1000 * fold_id
    return {"split": config.train.seed + fold_id,  # kfold_splits drew the fold with it
            "run": run, "model": run + 17, "dropout": run + 29,
            "neutral": config.neutral.seed + run}


def _neutral_graph(stats, source, neutral: NeutralConfig, seed: int, offset=0,
                   variant=None):
    """The neutral graph drawn at ``seed + offset`` (offset 0 is the post-hoc
    rows' reference, b is refresh block b's), with ``neutral``'s variant
    unless ``variant`` names another; ``source`` holds the train rows."""
    cfg = replace(neutral, construction_variant=variant or neutral.construction_variant,
                  seed=seed + offset)
    return construct_neutral(stats, cfg, labeled_source=source)


def _make_refresh_hook(neutral_for, k):
    """Validation-selection hook: score validation on logits calibrated by
    subtraction against ``neutral_for(epoch // k)``, one reference per block
    of k epochs. Only the current block's graph, and its operator, is kept."""
    block_neutral = lru_cache(maxsize=1)(neutral_for)

    def hook(epoch, params, logits):
        return logits - neutral_logit_vector(params, block_neutral(epoch // k))

    return hook


def _fit(graph: Graph, config: ExperimentConfig, fold, seeds: dict, neutral_for):
    """Train the job's model: (params, train summary), or (the NeubmError
    that stopped training, a summary of its wall time alone)."""
    model_config = _resolve_model_config(config, graph, seed=seeds["model"])
    train_config = replace(config.train, seed=seeds["dropout"])
    k = config.neutral.refresh_every
    start = time.perf_counter()
    try:
        params, report = train(graph, fold, model_config, train_config,
                               val_logits_transform=None if k == "never"
                               else _make_refresh_hook(neutral_for, k))
    except NeubmError as exc:
        return exc, {"wall_time_seconds": time.perf_counter() - start}
    return params, {
        "epochs_run": report.epochs_run,
        "best_epoch": report.best_epoch,
        "final_loss": report.loss_curve[-1] if report.loss_curve else None,
        # val_metric_curve[e] is the score after epoch e (0 = before training)
        "best_val_metric": report.val_metric_curve[report.best_epoch],
        "wall_time_seconds": time.perf_counter() - start,
    }


def _score(graph: Graph, config: ExperimentConfig, rows: list[AblationRow], fold,
           params, neutral_for) -> list:
    """Each row's outcome, post hoc on the test rows alone: (metrics, bias,
    neutral fidelity), or the NeubmError that stopped it. Each distinct
    reference is computed once and each distinct (spec, reference) outcome
    once; the rows that share one label it. A raised error is not kept, so
    each of its rows fails, and retries, on its own."""
    logits = predict_logits(params, graph)[fold.test]
    test_labels = graph.labels[fold.test]
    uncal_probs = softmax(logits)
    # the bias diagnostic's majority class, from train labels only
    majority = int(np.bincount(graph.labels[fold.train]).argmax())
    method = (CalibrationSpec("subtract"), config.neutral.construction_variant)
    references = {None: (np.zeros(logits.shape[1]), None)}  # the zero reference
    outcomes, results = {}, []
    for row in rows:
        spec, variant = key = (row.spec, row.neutral_variant)
        try:
            if variant not in references:
                neutral = neutral_for(0, variant)
                references[variant] = (neutral_logit_vector(params, neutral),
                                       neutral_fidelity(neutral))
                del neutral  # the graph and its operator are not needed again
            if key not in outcomes:
                vec, fidelity = references[variant]
                out = calibrate(logits, vec, spec)
                metrics = evaluate(out.predicted_labels, test_labels,
                                   num_classes=graph.num_classes)
                bias = check_bias_reduction(uncal_probs, out.probabilities, majority,
                                            vec, logits_before=logits,
                                            logits_after=out.corrected_logits)
                if bias["min_shift_exceeds_maj"] is False and spec.variant == "subtract":
                    # corrected = L - v makes delta = -v, so for subtraction a
                    # violated ordering means the implementation broke; other
                    # variants add data-dependent terms and carry no such guarantee
                    raise NumericError("per-class shift ordering violated")
                if key == method:
                    bias.update(_mmd_diagnostic(uncal_probs, out.probabilities,
                                                test_labels))
                outcomes[key] = metrics, bias, fidelity
            results.append(outcomes[key])
        except NeubmError as exc:
            results.append(exc)
    return results


def _job_record(job: dict, row: AblationRow, summary: dict, outcome) -> dict:
    """One records.jsonl row: ok with ``outcome``'s values, or failed by it."""
    failed = isinstance(outcome, NeubmError)
    metrics, bias, fidelity = (None, None, None) if failed else outcome
    return {
        **job, "group": row.group, "row_id": row.row_id, "spec": row.spec.to_dict(),
        "status": "failed" if failed else "ok", "train_summary": summary,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "metrics": metrics, "bias": bias,
        "error": f"{type(outcome).__name__}: {outcome}" if failed else None,
        "neutral_fidelity": fidelity,
    }


def _run_single(graph: Graph, config: ExperimentConfig, rows: list[AblationRow],
                run_index: int, fold_id: int, fold, sweep_variable, sweep_value,
                config_hash: str) -> list[dict]:
    """Fit one model for (run, fold), then score each distinct calibration
    of its rows post hoc, once; one records.jsonl row per row. A failed fit
    fails every row, so the sweep continues and aggregates mark the gap."""
    seeds = _job_seeds(config, run_index, fold_id)
    neutral_for = partial(_neutral_graph, compute_dataset_stats(graph),
                          train_rows(graph, fold.train), config.neutral,
                          seeds["neutral"])
    params, summary = _fit(graph, config, fold, seeds, neutral_for)
    outcomes = ([params] * len(rows) if isinstance(params, NeubmError)
                else _score(graph, config, rows, fold, params, neutral_for))
    job = {"config_hash": config_hash, "seed": run_index, "fold_id": fold_id,
           "sweep_variable": sweep_variable, "sweep_value": sweep_value,
           "derived_seeds": seeds}
    return [_job_record(job, row, summary, outcome)
            for row, outcome in zip(rows, outcomes)]


def _mmd_diagnostic(probs_before, probs_after, labels):
    """Exploratory: probability-space distance between the two largest test
    classes, before/after calibration. Not an invariant, and read by no
    report, so only the method's rows (subtraction at the logits against
    the configured neutral variant) carry it. The probability rows are the
    test rows, ``labels`` their true classes.
    """
    counts = np.bincount(labels[labels >= 0])
    top = np.argsort(counts)[::-1]
    if len(top) < 2 or counts[top[1]] == 0:
        return {}
    c1, c2 = int(top[0]), int(top[1])

    def mmd(probs):
        return mmd_rbf(*(probs[labels == c][:MMD_DIAG_MAX_ROWS] for c in (c1, c2)))

    return {
        "mmd_classes": [c1, c2],
        "mmd_prob_before": mmd(probs_before),
        "mmd_prob_after": mmd(probs_after),
    }


# ---------------------------------------------------------------------------
# aggregation

METRIC_FIELDS = ("f1_macro", "f1_weighted", "f1_micro", "accuracy")


def aggregate_records(records: list[dict]) -> list[dict]:
    """Mean and population std per (group, sweep point, row); stable order."""
    groups: dict[tuple, list[dict]] = {}
    for r in records:
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
        if decreased := [r["bias"]["majority_prob_decreased"] for r in ok if r["bias"]]:
            entry["majority_prob_decreased_fraction"] = float(np.mean(decreased))
        rows.append(entry)
    return rows


# ---------------------------------------------------------------------------
# reports


def write_run(out: Path, command: str, config: ExperimentConfig,
              records: list[dict]) -> list[dict]:
    """Write a run's directory from one aggregation of ``records``:
    records.jsonl, aggregate.json, results.csv, the sweep charts and
    config.json. Returns the aggregate rows.

    Only records.jsonl holds wall-clock values, so identical records give
    byte-identical reports.
    """
    out.mkdir(parents=True, exist_ok=True)
    aggregates = aggregate_records(records)
    config_hash = config.config_hash()

    def write_json(name, payload):
        (out / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    (out / "records.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    write_json("aggregate.json", {
        "metadata": {"config_hash": config_hash, "decisions": RUN_METADATA},
        "aggregates": aggregates,
    })
    header = ["group", "sweep_variable", "sweep_value", "row_id", "n_runs",
              "n_completed"]
    header += [f"{f}_{part}" for f in METRIC_FIELDS for part in ("mean", "std", "fmt")]
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
            cells += ["", "", ""] if m is None else [
                f"{m['mean']:.17g}", f"{m['std']:.17g}", f"\"{m['formatted']}\""]
        lines.append(",".join(cells))
    (out / "results.csv").write_text("\n".join(lines) + "\n")
    write_sweep_charts(aggregates, out)
    write_json("config.json", {"command": command, "config_hash": config_hash,
                               "decisions": RUN_METADATA,
                               "config": config.to_dict()})
    return aggregates


def write_sweep_charts(aggregates: list[dict], out: Path) -> list[Path]:
    """Draw sweep_<variable>.svg, f1_macro against the sweep value with one
    line per row, for each sweep variable of ``aggregates``; byte-identical
    for identical aggregates. Returns the files written."""
    from .plotting import line_chart_svg

    written = []
    for variable in sorted({row["sweep_variable"] for row in aggregates} - {None}):
        rows = [r for r in aggregates if r["sweep_variable"] == variable]
        xs = sorted({r["sweep_value"] for r in rows})
        series = {row_id: [None] * len(xs)
                  for row_id in sorted({r["row_id"] for r in rows})}
        for r in rows:
            f1 = r["metrics"]["f1_macro"]
            series[r["row_id"]][xs.index(r["sweep_value"])] = f1 and f1["mean"]
        path = out / f"sweep_{variable}.svg"
        line_chart_svg(path, xs, series, title=f"f1_macro vs {variable}",
                       xlabel=variable, ylabel="f1_macro")
        written.append(path)
    return written


def read_records(path) -> list[dict]:
    return read_lines(path, "records", ConfigError, _record)


def _record(line: str) -> dict:
    """A records.jsonl row; ValueError unless it holds, with their JSON
    types, the keys that aggregate_records and the sweep charts read, each
    number among them finite."""
    r = json.loads(line)
    get = r.get if isinstance(r, dict) else {}.get
    sweep, value = get("sweep_variable", 0), get("sweep_value", "")
    metrics, bias = get("metrics"), get("bias", 0)
    if not (all(type(get(key)) is str for key in ("group", "row_id", "status"))
            and (sweep is value is None or type(sweep) is str
                 and sweep.isidentifier() and finite(value))
            and (get("status") != "ok" or isinstance(metrics, dict)
                 and all(finite(metrics.get(f)) for f in METRIC_FIELDS)
                 and (bias is None or type(getattr(bias, "get", {}.get)(
                     "majority_prob_decreased")) is bool))):
        raise ValueError(f"not a neubm record: {line[:60]}")
    return r


# ---------------------------------------------------------------------------
# entry points


def sweep_points(config: ExperimentConfig):
    """Yield (sweep_variable, sweep_value, graph) for every sweep point: the
    configured dataset alone as (None, None, graph) when the config has no
    sweep section, else each noise level of it, then each rho_sweep value
    regenerated."""
    noise, rhos = config.noise, config.rho_sweep or ()
    if noise is None and not rhos:
        yield None, None, _load_base_dataset(config)
    if noise is not None:
        base = _load_base_dataset(config)
        for level in noise.levels:
            noisy = inject_noise(base, NoiseSpec(noise.kind, level, seed=noise.seed))
            yield f"noise_{noise.kind}", float(level), noisy
    for rho in rhos:
        regenerated = generate_sbm(replace(config.dataset, rho=float(rho)))
        yield "rho", float(rho), regenerated


def _run(command: str, config: ExperimentConfig,
         rows: list[AblationRow]) -> list[dict]:
    """Train and evaluate every (sweep point, seed, fold), then write
    records.jsonl, the reports and config.json. Returns the aggregate rows.

    Every call computes and overwrites the output dir; identical configs
    give byte-identical reports.
    """
    config_hash = config.config_hash()
    protocol = config.protocol
    records = []
    for sweep_variable, sweep_value, graph in sweep_points(config):
        # one fold family per sweep point: the splits are a property of the
        # data; repeated runs vary the training randomness on top of them
        folds = kfold_splits(
            graph, protocol.k_folds, protocol.train_frac, protocol.val_frac,
            protocol.min_per_class, seed=config.train.seed,
        )
        for fold in folds:
            protocol.check_split(fold)
        for run_index in range(protocol.num_seeds):
            for fold_id, fold in enumerate(folds):
                records.extend(_run_single(
                    graph, config, rows, run_index, fold_id, fold,
                    sweep_variable, sweep_value, config_hash,
                ))
    return write_run(resolve_output_dir(config.output_dir), command, config,
                     records)


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """seeds x folds x calibration specs at every sweep point."""
    return _run("experiment", config, default_rows(config))


def run_ablations(config: ExperimentConfig) -> list[dict]:
    """Neutral-construction, calibration-variant, and position ablations at
    every sweep point, all evaluated post hoc on the same trained models."""
    return _run("ablate", config, ablation_rows())
