"""Command-line interface.

Subcommands: gen, stats, train, calibrate, eval, experiment, ablate, plot;
experiment and ablate run every sweep point of their config. Exit codes: 0
success, 2 config error, 3 data error, 4 numeric error. The NEUBM_OUTPUT_ROOT
environment variable re-roots relative experiment output directories.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import sys
from pathlib import Path

import numpy as np

from .calibrate import (
    POSITIONS,
    VARIANTS,
    CalibrationSpec,
    calibrate,
    read_predictions_csv,
    write_predictions_csv,
)
from .datasets import (
    SbmConfig,
    describe,
    generate_sbm,
    load_canonical,
    save_canonical,
    save_masks,
    stored_split,
    stratified_split,
)
from .errors import ConfigError, DataError, NeubmError
from .graph import compute_dataset_stats
from .harness import (
    MODEL_DEFAULTS,
    ProtocolConfig,
    aggregate_records,
    load_dataset_config,
    load_experiment_config,
    read_records,
    resolve_output_dir,
    run_ablations,
    run_experiment,
    write_sweep_charts,
)
from .metrics import evaluate
from .models import (
    ARCHITECTURES,
    ModelConfig,
    load_checkpoint,
    predict_logits,
    save_checkpoint,
)
from .neutral import (
    CONSTRUCTION_VARIANTS,
    NeutralConfig,
    construct_neutral,
    load_neutral,
    neutral_logit_vector,
    save_neutral,
    train_rows,
)
from .training import TrainConfig, train


def keep_heap_resident() -> None:
    """Serve arrays up to 32 MiB from the heap and keep freed heap mapped.

    With glibc's default thresholds each training step's temporaries (512
    KiB at 2,000 nodes x width 32) are unmapped on free and faulted back in
    every epoch. glibc raises both thresholds by itself once a large mapped
    block is freed, as the block model's 2 MB uniform strips did by accident
    before it sampled by geometric skips; this sets them explicitly, for
    every array up to the 32 MiB ceiling. Run by :func:`main` only, so
    importing neubm changes no allocator setting; a no-op without mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(-3, 32 * 2**20)  # M_MMAP_THRESHOLD, at its 64-bit ceiling
    mallopt(-1, 512 * 2**20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    keep_heap_resident()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args) or 0
    except NeubmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


class FiniteFloat(argparse.Action):
    """A float flag's action: nan or inf is a config error naming the flag."""

    def __call__(self, parser, namespace, value, option_string=None):
        if not math.isfinite(value):
            raise ConfigError(f"{option_string} must be a finite number, got {value}")
        setattr(namespace, self.dest, value)


class Seed(argparse.Action):
    """A seed flag's action: a negative seed is a config error naming the flag."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise ConfigError(f"{option_string} must be >= 0, got {value}")
        setattr(namespace, self.dest, value)


# `gen`'s generator flags: flag -> (SbmConfig field, type, default)
GEN_FLAGS = {
    "--classes": ("num_classes", int, 5), "--nodes": ("total_nodes", int, 2000),
    "--rho": ("rho", float, 10.0), "--p-intra": ("p_intra", float, 0.05),
    "--p-inter": ("p_inter", float, 0.005), "--dim": ("feature_dim", int, 16),
    "--separation": ("class_mean_separation", float, SbmConfig.class_mean_separation),
    "--std": ("feature_std", float, SbmConfig.feature_std),
    "--seed": ("seed", int, SbmConfig.seed)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neubm",
        description="Neutral-reference bias mitigation for GNN node "
                    "classification: data generation, training, post-hoc "
                    "calibration, and experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic imbalanced dataset")
    p.add_argument("--out", required=True, help="canonical dataset directory")
    p.add_argument("--config", help="JSON generator settings, instead of the flags")
    for flag, (field, kind, default) in GEN_FLAGS.items():
        action = FiniteFloat if kind is float else Seed if field == "seed" else None
        p.add_argument(flag, dest=field, type=kind, help=f"default {default}",
                       action=action)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="print dataset summary")
    p.add_argument("data", help="canonical dataset directory")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    p.add_argument("--arch", choices=ARCHITECTURES,
                   default=MODEL_DEFAULTS["architecture"])
    p.add_argument("--hidden", type=int, default=MODEL_DEFAULTS["hidden_dim"])
    p.add_argument("--dropout", type=float, action=FiniteFloat,
                   default=ModelConfig.dropout)
    p.add_argument("--heads", type=int, default=ModelConfig.num_heads)
    p.add_argument("--lr", type=float, action=FiniteFloat,
                   default=TrainConfig.learning_rate)
    p.add_argument("--weight-decay", type=float, action=FiniteFloat,
                   default=TrainConfig.weight_decay)
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--seed", type=int, action=Seed, default=TrainConfig.seed)
    # the split flags default to None: they apply to a drawn split only,
    # and ProtocolConfig fills in what is not given
    p.add_argument("--train-frac", type=float, action=FiniteFloat)
    p.add_argument("--val-frac", type=float, action=FiniteFloat)
    p.add_argument("--min-per-class", type=int)
    p.add_argument("--write-masks", action="store_true",
                   help="save the split into the dataset's masks.json")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "calibrate",
        help="checkpoint + dataset + calibration spec -> predictions CSV",
    )
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.add_argument("--variant", default=CalibrationSpec.variant, choices=VARIANTS)
    p.add_argument("--position", default=CalibrationSpec.position,
                   choices=POSITIONS)
    p.add_argument("--lam", type=float, action=FiniteFloat,
                   help="scaling factor (scale variant)")
    p.add_argument("--neutral-dir", help="reuse a serialized neutral graph")
    # None when not given, so that a conflict with --neutral-dir shows;
    # NeutralConfig fills in what is not given
    p.add_argument("--neutral-seed", type=int, action=Seed)
    p.add_argument("--neutral-variant", choices=CONSTRUCTION_VARIANTS)
    p.add_argument("--save-neutral", help="serialize the constructed neutral graph")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("eval", help="predictions + labels -> metrics JSON")
    p.add_argument("--pred", required=True, help="predictions CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.add_argument("--mask", default="test",
                   choices=("train", "val", "test", "all"),
                   help="the stored split's part to score, or 'all' for "
                        "every labeled node")
    p.set_defaults(func=cmd_eval)

    for name, runner, desc in (
        ("experiment", run_experiment, "seeds x folds x calibration specs"),
        ("ablate", run_ablations, "neutral/calibration/position ablations"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.set_defaults(func=_make_runner(runner))

    p = sub.add_parser("plot", help="regenerate SVG charts from saved records")
    p.add_argument("--results", required=True, help="experiment output directory")
    p.set_defaults(func=cmd_plot)
    return parser


def cmd_gen(args) -> int:
    given = {flag: getattr(args, field) for flag, (field, _, _) in GEN_FLAGS.items()
             if getattr(args, field) is not None}
    if args.config and given:
        raise ConfigError(f"--config takes no generator flags: {', '.join(given)}")
    cfg = load_dataset_config(args.config) if args.config else SbmConfig(**{
        field: given.get(flag, default) for flag, (field, _, default) in GEN_FLAGS.items()})
    graph = generate_sbm(cfg)
    save_canonical(graph, args.out)
    print(describe(graph))
    return 0


def cmd_stats(args) -> int:
    graph = load_canonical(args.data)
    print(describe(graph))
    stats = compute_dataset_stats(graph)
    print(f"n_bar={stats.n_bar:g}, d_bar={stats.d_bar:.6g}")
    if graph.labels is not None:
        counts = np.bincount(graph.labels[graph.labels >= 0])
        print("class counts:", counts.tolist())
    return 0


def cmd_train(args) -> int:
    # every flag is checked before anything is trained or written
    given = {name: getattr(args, name)
             for name in ("train_frac", "val_frac", "min_per_class")
             if getattr(args, name) is not None}
    protocol = ProtocolConfig(**given)
    split_flags = [f"--{name.replace('_', '-')}" for name in given]
    split_flags += ["--write-masks"] if args.write_masks else []
    train_config = TrainConfig(
        learning_rate=args.lr, weight_decay=args.weight_decay,
        max_epochs=args.max_epochs, patience=args.patience, seed=args.seed,
    )
    graph = load_canonical(args.data)
    if graph.labels is None:
        raise ConfigError("training needs a labeled dataset")
    model_config = ModelConfig(
        architecture=args.arch, input_dim=graph.num_features,
        hidden_dim=args.hidden, num_classes=graph.num_classes,
        dropout=args.dropout, num_heads=args.heads, seed=args.seed,
    )
    split = stored_split(args.data, graph.num_nodes)
    if split is not None and split_flags:
        raise ConfigError(f"{', '.join(split_flags)} apply to a drawn split only, "
                          "and the dataset stores one",
                          file=Path(args.data) / "masks.json")
    if split is None:
        split = stratified_split(
            graph, protocol.train_frac, protocol.val_frac, protocol.min_per_class,
            args.seed,
        )
        protocol.check_split(split)
        if args.write_masks:
            save_masks(split, args.data)
    params, report = train(graph, split, model_config, train_config)
    save_checkpoint(params, args.out)
    pred = predict_logits(params, graph).argmax(axis=1)
    test_f1 = evaluate(pred[split.test], graph.labels[split.test],
                       num_classes=graph.num_classes)["f1_macro"]
    print(
        f"trained {args.arch}: epochs={report.epochs_run} "
        f"best_epoch={report.best_epoch} "
        f"val_f1_macro={report.val_metric_curve[report.best_epoch]:.4f} "
        f"test_f1_macro={test_f1:.4f} "
        f"wall={report.wall_time_seconds:.1f}s -> {args.out}"
    )
    return 0


def cmd_calibrate(args) -> int:
    # flags the chosen path would ignore are rejected before any file is read
    neutral_flags = [flag for flag, value in (
        ("--save-neutral", args.save_neutral), ("--neutral-seed", args.neutral_seed),
        ("--neutral-variant", args.neutral_variant)) if value is not None]
    if args.variant == "none" and (args.neutral_dir or neutral_flags):
        flags = (["--neutral-dir"] if args.neutral_dir else []) + neutral_flags
        raise ConfigError(f"{', '.join(flags)} cannot be used with --variant "
                          "none, which uses no neutral graph")
    if args.neutral_dir and neutral_flags:
        raise ConfigError(f"{', '.join(neutral_flags)} cannot be used with "
                          "--neutral-dir, which loads a built neutral graph")
    params = load_checkpoint(args.model)
    graph = load_canonical(args.data)
    spec = CalibrationSpec(variant=args.variant, position=args.position,
                           lam=args.lam)
    logits = predict_logits(params, graph)
    neutral = load_neutral(args.neutral_dir) if args.neutral_dir else None
    if neutral is None and spec.variant != "none":
        config = NeutralConfig(**{
            field: value for field, value in (
                ("construction_variant", args.neutral_variant),
                ("seed", args.neutral_seed)) if value is not None})
        stats = compute_dataset_stats(graph)
        source = None
        if config.construction_variant != "mean_cov":
            # copied rows come from the stored split's train part only
            split = stored_split(args.data, graph.num_nodes)
            if split is None:
                raise DataError(f"neutral variant {config.construction_variant!r} "
                                "needs a stored split",
                                file=Path(args.data) / "masks.json")
            source = train_rows(graph, split.train)
        neutral = construct_neutral(stats, config, labeled_source=source)
        if args.save_neutral:
            save_neutral(neutral, args.save_neutral)
    neutral_vec = (np.zeros(logits.shape[1]) if neutral is None
                   else neutral_logit_vector(params, neutral))
    out = calibrate(logits, neutral_vec, spec)
    write_predictions_csv(out, args.out)
    print(f"wrote {graph.num_nodes} calibrated predictions -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    pred, _ = read_predictions_csv(args.pred)
    graph = load_canonical(args.data)
    if graph.labels is None:
        raise ConfigError("evaluation needs a labeled dataset")
    if pred.shape != (graph.num_nodes,):
        raise DataError(
            f"{pred.size} predictions for {graph.num_nodes} nodes", file=args.pred
        )
    if args.mask == "all":
        rows = np.flatnonzero(graph.labels >= 0)
    else:
        split = stored_split(args.data, graph.num_nodes)
        if split is None:
            raise DataError(f"--mask {args.mask} needs a stored split",
                            file=Path(args.data) / "masks.json")
        rows = getattr(split, args.mask)
    report = evaluate(pred[rows], graph.labels[rows],
                      num_classes=graph.num_classes)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"f1_macro={report['f1_macro']:.4f} f1_weighted={report['f1_weighted']:.4f} "
        f"f1_micro={report['f1_micro']:.4f} rho={report['rho']:.4g} -> {args.out}"
    )
    return 0


def _make_runner(runner):
    def cmd(args) -> int:
        config = load_experiment_config(args.config)
        aggregates = runner(config)
        out = resolve_output_dir(config.output_dir)
        for row in aggregates:
            m = row["metrics"]["f1_macro"]
            sweep = (
                f" {row['sweep_variable']}={row['sweep_value']:g}"
                if row["sweep_variable"] else ""
            )
            fmt = m["formatted"] if m else "incomplete"
            print(f"[{row['group']}{sweep}] {row['row_id']}: f1_macro {fmt}")
        print(f"reports -> {out}")
        return 0

    return cmd


def cmd_plot(args) -> int:
    out = Path(args.results)
    records = read_records(out / "records.jsonl")
    written = write_sweep_charts(aggregate_records(records), out)
    print("\n".join(f"wrote {path}" for path in written) or "no sweep data to plot")
    return 0


if __name__ == "__main__":
    sys.exit(main())
