"""Command-line interface.

Subcommands: gen, stats, train, calibrate, eval, experiment, ablate, sweep,
plot. Exit codes: 0 success, 2 config error, 3 data error, 4 numeric error.
The NEUBM_OUTPUT_ROOT environment variable re-roots relative experiment
output directories.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .calibrate import CalibrationSpec, calibrate, write_predictions_csv
from .datasets import (
    SbmConfig,
    describe,
    generate_sbm,
    load_canonical,
    save_canonical,
    stratified_split,
)
from .errors import EXIT_CODES, ConfigError, NeubmError
from .graph import compute_dataset_stats
from .harness import (
    emit_report,
    load_experiment_config,
    read_records,
    resolve_output_dir,
    run_ablations,
    run_experiment,
    run_sensitivity,
)
from .metrics import evaluate
from .models import ModelConfig, load_checkpoint, predict_logits, save_checkpoint
from .neutral import (
    NeutralConfig,
    construct_neutral,
    load_neutral,
    neutral_logit_vector,
    save_neutral,
    train_rows,
)
from .training import TrainConfig, train


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except NeubmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)


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
    p.add_argument("--config", help="JSON file with generator settings")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--nodes", type=int, default=2000)
    p.add_argument("--rho", type=float, default=10.0)
    p.add_argument("--p-intra", type=float, default=0.05)
    p.add_argument("--p-inter", type=float, default=0.005)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--separation", type=float, default=1.0)
    p.add_argument("--std", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="print dataset summary")
    p.add_argument("data", help="canonical dataset directory")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    p.add_argument("--arch", choices=["gcn", "gat"], default="gcn")
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--weight-decay", type=float, default=5e-4)
    p.add_argument("--max-epochs", type=int, default=500)
    p.add_argument("--patience", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-frac", type=float, default=0.1)
    p.add_argument("--val-frac", type=float, default=0.1)
    p.add_argument("--min-per-class", type=int, default=5)
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
    p.add_argument("--variant", default="subtract",
                   choices=["none", "subtract", "scale", "normalize"])
    p.add_argument("--position", default="logits",
                   choices=["logits", "post_softmax"])
    p.add_argument("--lam", type=float, help="scaling factor (scale variant)")
    p.add_argument("--neutral-dir", help="reuse a serialized neutral graph")
    p.add_argument("--neutral-seed", type=int, default=0)
    p.add_argument("--neutral-variant", default="mean_cov",
                   choices=["mean_cov", "random", "class_balanced"])
    p.add_argument("--save-neutral", help="serialize the constructed neutral graph")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("eval", help="predictions + labels -> metrics JSON")
    p.add_argument("--pred", required=True, help="predictions CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.add_argument("--mask", default="test",
                   help="mask name, or 'all' for every labeled node")
    p.set_defaults(func=cmd_eval)

    for name, runner, desc in (
        ("experiment", run_experiment, "seeds x folds x calibration specs"),
        ("ablate", run_ablations, "neutral/calibration/position ablations"),
        ("sweep", run_sensitivity, "noise and imbalance-ratio sweeps"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--force", action="store_true",
                       help="recompute even if the output dir is complete")
        p.set_defaults(func=_make_runner(runner))

    p = sub.add_parser("plot", help="regenerate SVG charts from saved records")
    p.add_argument("--results", required=True, help="experiment output directory")
    p.set_defaults(func=cmd_plot)
    return parser


def cmd_gen(args) -> int:
    if args.config:
        cfg = SbmConfig(**json.loads(Path(args.config).read_text()))
    else:
        cfg = SbmConfig(
            num_classes=args.classes, total_nodes=args.nodes, rho=args.rho,
            p_intra=args.p_intra, p_inter=args.p_inter, feature_dim=args.dim,
            class_mean_separation=args.separation, feature_std=args.std,
            seed=args.seed,
        )
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
    graph = load_canonical(args.data)
    if graph.labels is None:
        raise ConfigError("training needs a labeled dataset")
    if all(name in graph.masks for name in ("train", "val", "test")):
        from .datasets import SplitAssignment

        split = SplitAssignment(
            train=np.flatnonzero(graph.mask("train")),
            val=np.flatnonzero(graph.mask("val")),
            test=np.flatnonzero(graph.mask("test")),
            seed=args.seed,
        )
    else:
        split = stratified_split(
            graph, args.train_frac, args.val_frac, args.min_per_class, args.seed
        )
        if args.write_masks:
            masks = {
                name: np.flatnonzero(m).tolist()
                for name, m in sorted(split.to_masks(graph.num_nodes).items())
            }
            (Path(args.data) / "masks.json").write_text(
                json.dumps(masks, indent=2) + "\n"
            )
    model_config = ModelConfig(
        architecture=args.arch, input_dim=graph.num_features,
        hidden_dim=args.hidden, num_classes=graph.num_classes,
        dropout=args.dropout, num_heads=args.heads, seed=args.seed,
    )
    train_config = TrainConfig(
        learning_rate=args.lr, weight_decay=args.weight_decay,
        max_epochs=args.max_epochs, patience=args.patience, seed=args.seed,
    )
    params, report = train(graph, split, model_config, train_config)
    save_checkpoint(params, args.out)
    pred = predict_logits(params, graph).argmax(axis=1)
    masks = split.to_masks(graph.num_nodes)
    test_f1 = evaluate(pred, graph.labels, mask=masks["test"],
                       num_classes=graph.num_classes).f1_macro
    print(
        f"trained {args.arch}: epochs={report.epochs_run} "
        f"best_epoch={report.best_epoch} "
        f"val_f1_macro={report.val_metric_curve[report.best_epoch]:.4f} "
        f"test_f1_macro={test_f1:.4f} "
        f"wall={report.wall_time_seconds:.1f}s -> {args.out}"
    )
    return 0


def cmd_calibrate(args) -> int:
    params = load_checkpoint(args.model)
    graph = load_canonical(args.data)
    spec = CalibrationSpec(variant=args.variant, position=args.position,
                           lam=args.lam)
    logits = predict_logits(params, graph)
    if spec.variant == "none":
        neutral_vec = np.zeros(logits.shape[1])
    elif args.neutral_dir:
        neutral = load_neutral(args.neutral_dir)
        neutral_vec = neutral_logit_vector(params, neutral)
    else:
        stats = compute_dataset_stats(graph)
        source = None
        if args.neutral_variant != "mean_cov":
            # copied rows come from the train split (masks.json) only
            source = train_rows(graph, graph.mask("train"))
        neutral = construct_neutral(
            stats,
            NeutralConfig(construction_variant=args.neutral_variant,
                          seed=args.neutral_seed),
            labeled_source=source,
        )
        if args.save_neutral:
            save_neutral(neutral, args.save_neutral)
        neutral_vec = neutral_logit_vector(params, neutral)
    out = calibrate(logits, neutral_vec, spec)
    write_predictions_csv(out, args.out)
    print(f"wrote {graph.num_nodes} calibrated predictions -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    from .calibrate import read_predictions_csv

    pred, _ = read_predictions_csv(args.pred)
    graph = load_canonical(args.data)
    if graph.labels is None:
        raise ConfigError("evaluation needs a labeled dataset")
    if args.mask == "all":
        mask = graph.labels >= 0
    else:
        mask = graph.mask(args.mask)
    report = evaluate(pred, graph.labels, mask=mask,
                      num_classes=graph.num_classes)
    Path(args.out).write_text(report.to_json() + "\n")
    print(
        f"f1_macro={report.f1_macro:.4f} f1_weighted={report.f1_weighted:.4f} "
        f"f1_micro={report.f1_micro:.4f} rho={report.rho:.4g} -> {args.out}"
    )
    return 0


def _make_runner(runner):
    def cmd(args) -> int:
        config = load_experiment_config(args.config)
        aggregates = runner(config, force=args.force)
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
    written = emit_report(records, out, formats=("svg",))
    for path in written.values():
        print(f"wrote {path}")
    if not written:
        print("no sweep data to plot")
    return 0


if __name__ == "__main__":
    sys.exit(main())
