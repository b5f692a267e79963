"""Extremal dependence of componentwise maxima over a random number of
observations: max-stable dependence models and their alpha-scaling
transforms, samplers for the scaled and domain-of-attraction pipelines,
rank-based dependence estimators with a composite inverse estimator, and a
reproducible Monte Carlo study harness.
"""

__version__ = "0.1.0"

from .depcore import (
    AlphaScaled,
    ExtremalT,
    GevMargin,
    Independence,
    LimitLawQ,
    Logistic,
    PickandsModel,
    edge_grid,
    extremal_coefficient,
    lambda_from_theta,
    lambda_inverse_link,
    stable_tail,
    student_t_cdf,
    tail_prob_approx,
)
from .errors import (
    ConfigError,
    DomainError,
    EstimationError,
    InputParseError,
    RandmaxError,
    RangeLinkError,
)
from .estimators import (
    CurveEstimate,
    EstimatorPair,
    FitSettings,
    fit_pairs,
)
from .harness import (
    Combo,
    ComboResult,
    ExperimentConfig,
    run_experiment,
    truth_curve,
)
from .samplers import (
    PairedSample,
    RngStream,
    sample_experiment1,
    sample_experiment2,
    sample_logistic_maxstable,
    sample_pareto_block_size,
    sample_positive_stable,
)
