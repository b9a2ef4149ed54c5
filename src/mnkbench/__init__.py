"""MNK-landscape workbench.

Generates enumerable MNK-landscape instances, runs a Bayesian-network EDA
and an NSGA-III-style baseline against exact Pareto sets, estimates the
expected runtime to a (1+epsilon)-approximation, extracts landscape
features, fits regression cost models, and analyzes the learned model's
view of the Pareto front.
"""

from .analysis import (
    EliminationStep,
    ErtRecord,
    ModelStats,
    PmfViewEntry,
    RegressionModel,
    backward_eliminate,
    estimate_ert,
    fit_multiple,
    fit_simple,
    kfold_cv,
    pareto_pmf_view,
    regression_report,
)
from .bayesnet import (
    BNStructure,
    CPTs,
    fit_parameters,
    k2_learn,
    log_joint_pmf,
    sample,
)
from .enumeration import (
    EnumerationCapError,
    ParetoSet,
    RankedPopulation,
    enumerate_pareto,
    epsilon_success,
    nondominated_sort,
    pareto_mask,
)
from .experiment import ExperimentConfig
from .features import (
    FeatureVector,
    connectivity,
    extract_features,
    hypervolume,
    monte_carlo_hypervolume,
    pareto_distances,
)
from .landscape import (
    MalformedInstanceError,
    MNKInstance,
    NKComponent,
    evaluate_batch,
    generate_instance,
    load_instance,
    save_instance,
)
from .optimizers import (
    RunParams,
    RunResult,
    binary_tournament,
    mboa_run,
    nsga3_run,
    reference_directions,
)
from .seeds import derive_seed

__version__ = "0.1.0"
