"""The benchmark's workloads: one `neubm experiment` or `neubm ablate` config
each, all on the criterion-5 block model (5 classes, rho=10, d=16,
separation 0.8) with edge probabilities scaled by 2000/n so the mean degree
stays about 20 at every node count.

Every workload trains for a fixed number of epochs (patience = max_epochs),
so the work a run does does not depend on where early stopping happens to
land for a given dataset seed. At the default seed the criterion-5 config
never stops early (all 150 epochs run), so each `ablate-gcn-2k` model
trains exactly as in that config.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 2024
# Seed not used while the benchmark or a change was tuned; re-run a claimed
# gain on it before accepting the claim.
HELD_OUT_SEED = 7

# Rows written per (seed, fold) by `neubm experiment` (none@logits and
# subtract@logits) and by `neubm ablate` (harness.ablation_rows()).
EXPERIMENT_ROWS = 2
ABLATION_ROWS = 14

TINY_NODES = 400
TINY_EPOCHS = 12


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # neubm subcommand
    architecture: str
    nodes: int
    model_seeds: int
    epochs: int
    learning_rate: float = 0.01

    def _sizes(self, tiny: bool) -> tuple[int, int, int]:
        if tiny:
            return TINY_NODES, min(self.model_seeds, 2), min(self.epochs, TINY_EPOCHS)
        return self.nodes, self.model_seeds, self.epochs

    def config(self, dataset_seed: int, output_dir: str, tiny: bool = False) -> dict:
        nodes, seeds, epochs = self._sizes(tiny)
        scale = 2000 / nodes
        return {
            "dataset": {
                "num_classes": 5, "total_nodes": nodes, "rho": 10,
                "p_intra": 0.02 * scale, "p_inter": 0.006 * scale,
                "feature_dim": 16, "class_mean_separation": 0.8,
                "feature_std": 1.0, "seed": dataset_seed,
            },
            "model": {"architecture": self.architecture, "hidden_dim": 32,
                      "dropout": 0.5},
            "train": {"learning_rate": self.learning_rate,
                      "weight_decay": 5e-4, "max_epochs": epochs,
                      "patience": epochs, "seed": 0},
            "calibration": [{"variant": "none"}, {"variant": "subtract"}],
            "protocol": {"num_seeds": seeds, "k_folds": 1},
            "output_dir": output_dir,
        }

    def expected_records(self, tiny: bool = False) -> int:
        rows = ABLATION_ROWS if self.command == "ablate" else EXPERIMENT_ROWS
        return self._sizes(tiny)[1] * rows


WORKLOADS = {
    w.name: w
    for w in (
        # Post-hoc-bound: one trained GCN per model seed and 14 evaluated
        # rows, so the MMD diagnostic, neutral construction, calibrate and
        # evaluate outweigh training.
        Workload("ablate-gcn-2k", "ablate", "gcn", 2000, 3, 150),
        # Attention-bound: the only workload that runs the dense N x N GAT
        # attention. At lr 0.01 the model never beats its epoch-0 validation
        # score within a short budget, so the post-hoc gain is that of an
        # untrained model; lr 0.05 trains it within 8 epochs.
        Workload("experiment-gat-2k", "experiment", "gat", 2000, 1, 8, 0.05),
    )
}
