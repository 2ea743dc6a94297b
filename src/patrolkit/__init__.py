"""patrolkit: poaching-risk prediction and robust patrol planning.

The pipeline runs from raw ranger data to deployable patrol routes:
grid ingestion and effort reconstruction, effort-aware ensemble risk
prediction with uncertainty, piecewise-linear risk models, and a robust
mixed-integer flow program that turns predictions into patrol plans.
"""

from .grid import (
    GridError,
    ObservationLog,
    ParkGrid,
    PatrolDataset,
    WaypointTrack,
    assemble_dataset,
    build_labels,
    positive_rate_by_effort,
    reconstruct_effort,
)
from .iware import (
    IWareEnsemble,
    IwareError,
    RiskQuery,
    ThresholdSet,
    filter_dataset,
    predict_effort_conditioned,
    select_thresholds,
    squash_uncertainty,
    train_iware,
)
from .learners import (
    BaggedClassifier,
    DecisionTree,
    GpClassifier,
    LearnerError,
    TrainMatrix,
    jackknife_variance_batch,
    train_bagged,
    train_gp,
    train_tree,
)
from .metrics import (
    FieldTestTable,
    MetricsError,
    ScoredSet,
    auc,
    chi_squared_field_test,
    ll_score,
    obs_per_cell,
    pr_metrics,
)
from .riskmap import (
    BlockSelection,
    PwlRiskModel,
    RiskMap,
    build_pwl,
    select_field_test_blocks,
    sweep_riskmap,
)
from .synth import GroundTruth, SynthError, generate_park, generate_preset, sample_dataset

__version__ = "0.1.0"
