"""Group-contrastive metric learning and k-center coreset selection for
slice-based active learning over patient/volume-structured 2D slices."""

from .coreset import (
    SelectionState,
    k_center_greedy,
    kmeans_labels,
    silhouette_score,
)
from .data import (
    DatasetIndex,
    SynthSpec,
    generate_synthetic,
    group_deviation,
    load_dataset,
    save_dataset,
)
from .encoder import (
    Architecture,
    AugmentSpec,
    EncoderParams,
    TrainConfig,
    TrainResult,
    embed_all,
    forward,
    init_params,
    load_checkpoint,
    train,
)
from .errors import (
    FormatError,
    InvalidSpecError,
    SamplerError,
    SettingError,
    SlicepickError,
    TrainingDivergedError,
    UndefinedStatisticError,
)
from .gcle import read_gcle, write_gcle
from .losses import (
    LossBatch,
    LossConfig,
    combined_loss,
    preset_loss_config,
    slice_positives_from_rows,
)
from .pipeline import (
    RoundPlan,
    RoundReport,
    budgets,
    probe_accuracy,
    run_ablation,
    run_experiment,
)
from .sampler import EpochPlan, build_epoch, default_batch_size, tuple_width

__version__ = "0.1.0"
