"""FWER-controlled association scans.

Score tests in generalized linear models, six resampling schemes for the
maxT multiplicity correction, a correlated-genotype simulator, and a
Monte Carlo harness for calibrating familywise error rates.
"""

from .errors import (
    ConfigError,
    ConsistencyError,
    ConvergenceError,
    DegenerateMarkerError,
    FitError,
    InsufficientReplicatesError,
    InvalidCorrelationError,
    ParseError,
    PermscanError,
    QuasiSeparationError,
    ReplicateFailureError,
    ResamplingError,
    SingularDesignError,
    SizeLimitError,
)
from .glm import Dataset, Family, NullModelFit, fit_null
from .resampling import (
    CutoffResult,
    MaxTDistribution,
    ResamplingScheme,
    bonferroni_sidak,
    cutoff_ci,
    maxt_cutoff,
    mc_mvn_alpha_loc,
    per_dataset_fwer,
    replicate_matrix,
    replicate_statistics,
)
from .score import (
    ScoreCorrelation,
    ScoreStatistics,
    score_correlation,
    score_denominators,
    score_statistics,
)
from .simulate import (
    SimulatedDataset,
    SimulationConfig,
    simulate_dataset,
    simulate_genotypes,
    simulate_phenotype,
)
from .study import (
    AlphaLocResult,
    StudyConfig,
    StudyResult,
    alpha_loc_study,
    run_study,
    table_rows,
    wald_ci,
)

__version__ = "0.1.0"
