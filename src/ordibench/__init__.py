"""ordibench: compare ordinal-regression loss families under splits that do
not leak identities, and rank the outcomes with distribution-free statistics."""

from .data import (
    DatasetTable,
    LabelSet,
    ParseError,
    SynthSpec,
    ValidationError,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .splitting import (
    MODE_RANDOM,
    MODE_SUBJECT_EXCLUSIVE,
    AuditReport,
    SplitSpec,
    audit_split,
    load_split,
    make_split,
    make_split_series,
    save_split,
)
from .methods import (
    FAMILIES,
    LossEval,
    MethodConfig,
    loss_eval,
)
from .prediction import (
    Prediction,
    bayes_mae_predict,
    brute_force_bayes,
    decode_output,
)
from .training import (
    MlpModel,
    TrainConfig,
    TrainedRun,
    TrainingDiverged,
    evaluate_mae,
    forward,
    init_model,
    train,
)
from .stats import (
    RankSummary,
    ResultMatrix,
    critical_difference,
    friedman_test,
    rank_rows,
)
from .alignment import (
    DEFAULT_TEMPLATE_256,
    LandmarkSet,
    SimilarityTransform,
    crop_transform,
    rotation_transform,
    similarity_align,
)
from .harness import (
    ExperimentConfig,
    LeakageParams,
    LeakageReport,
    RunRecord,
    leakage_demo,
    run_experiment,
)

__version__ = "0.1.0"
