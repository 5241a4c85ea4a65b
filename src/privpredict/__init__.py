"""Differentially private prediction for adversarial query streams.

A labeled sample is split into blocks, each block fits a hypothesis, and every
query is answered by feeding the ensemble's vote fraction through the
BetweenThresholds sparse-vector mechanism.  Privacy budget is spent only on
hard rounds; two generators (version-space ERM and halfspace feasible-subspace
maximization) keep the number of hard rounds small against oblivious and
adaptive streams respectively.
"""

from .core import (
    AtomDistribution,
    BoxDistribution,
    ConfigurationError,
    GridDistribution,
    LabeledSample,
    NoiseSource,
    draw_sample,
    empirical_error,
    partition,
)
from .concepts import (
    EnumeratedClass,
    ThresholdClass,
    VersionSpace,
    load_enumerated_class,
)
from .dp import (
    BTOutcome,
    BTParams,
    PrivacyLedger,
    audit_dp,
    bt_accuracy_sample_bound,
    bt_init,
    bt_query,
    compose_advanced,
    laplace,
)
from .geometry import (
    DepthProfile,
    FeasibleSubspace,
    arrangement_candidates,
    argmax_cdepth,
)
from .predictor import RunReport, RunSpec, default_v_max, run
from .planner import PlanResult, plan_budgeted, plan_halfspace, plan_oblivious
from .harness import AuditToy, ExperimentConfig, run_audit, run_experiment

__version__ = "0.1.0"
