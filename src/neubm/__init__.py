"""Post-hoc class-imbalance bias mitigation for GNN node classification.

A trained model is probed with a synthetic "neutral" reference graph that
matches the dataset's average size, edge density, and feature statistics;
mean-pooled logits from that probe estimate the model's per-class bias and
are subtracted from its predictions. No retraining involved.
"""

from .calibrate import (
    CalibratedOutput,
    CalibrationSpec,
    calibrate,
    check_bias_reduction,
)
from .datasets import (
    NoiseSpec,
    SbmConfig,
    SplitAssignment,
    generate_sbm,
    inject_noise,
    kfold_splits,
    load_canonical,
    save_canonical,
    stratified_split,
)
from .graph import (
    DatasetStats,
    Graph,
    build_adjacency,
    compute_dataset_stats,
    symmetric_normalize,
)
from .harness import (
    ExperimentConfig,
    ProtocolConfig,
    load_experiment_config,
    run_ablations,
    run_experiment,
)
from .metrics import (
    confusion,
    evaluate,
    f1_scores,
    imbalance_ratio,
    mmd_rbf,
)
from .models import (
    ModelConfig,
    ModelParams,
    init_params,
    load_checkpoint,
    predict_logits,
    save_checkpoint,
)
from .neutral import (
    NeutralConfig,
    NeutralGraph,
    construct_neutral,
    neutral_logit_vector,
    sample_mvn,
)
from .training import (
    AdamState,
    TrainConfig,
    TrainReport,
    adam_step,
    cross_entropy_loss,
    train,
)

__version__ = "0.1.0"
