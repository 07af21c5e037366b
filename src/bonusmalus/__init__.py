"""Bonus-malus system design under a dependent frequency-severity risk model.

The package computes the jump laws and stationary level distributions of
severity-aware bonus-malus rules, of which a frequency-driven rule is the
equal-step case, optimal per-level relativities and their scores,
closed-form credibility premiums for the companion Poisson-Poisson mixture
model, and ships a seeded Monte Carlo simulator used as an independent
verification oracle.
"""

from .bayes import (
    MixtureBayesModel,
    MseComparison,
    bayes_agg_premium_freqhist,
    bayes_agg_premium_fullhist,
    bayes_freq_premium,
    mse_comparison_mc,
)
from .errors import (
    BonusMalusError,
    BracketingFailureError,
    InsufficientOccupancyError,
    ModelValidationError,
    NonFiniteIntegrandError,
    SingularSystemError,
)
from .hmse import (
    HmseReport,
    RuleDominanceReport,
    hmse_eval,
    rule_dominance_check,
    threshold_scan,
)
from .model import (
    ClaimHistory,
    DegenerateEffects,
    FreqRule,
    GammaSeverity,
    LognormalCopulaEffects,
    MixtureExponentialEffects,
    ModelSpec,
    PoissonSeverity,
    Portfolio,
    RiskClass,
    SeverityRule,
)
from .quadrature import (
    QuadratureGrid,
    build_grid,
    marginal_grid,
    severity_marginal_quantile,
)
from .relativity import (
    BalanceReport,
    RelativityTable,
    balance_check,
    optimal_relativity_dependent,
    optimal_relativity_frequency,
    optimal_relativity_severity,
    unconditional_level_distribution,
)
from .simulate import (
    SimConfig,
    SimSummary,
    empirical_relativity,
    hmse_empirical,
    simulate_paths,
)
from .verify import OracleCheck, check_rule

__version__ = "0.1.0"

__all__ = [
    "BalanceReport",
    "BonusMalusError",
    "BracketingFailureError",
    "ClaimHistory",
    "DegenerateEffects",
    "FreqRule",
    "GammaSeverity",
    "HmseReport",
    "InsufficientOccupancyError",
    "LognormalCopulaEffects",
    "MixtureBayesModel",
    "MixtureExponentialEffects",
    "ModelSpec",
    "ModelValidationError",
    "MseComparison",
    "NonFiniteIntegrandError",
    "OracleCheck",
    "PoissonSeverity",
    "Portfolio",
    "QuadratureGrid",
    "RelativityTable",
    "RiskClass",
    "RuleDominanceReport",
    "SeverityRule",
    "SimConfig",
    "SimSummary",
    "SingularSystemError",
    "balance_check",
    "bayes_agg_premium_freqhist",
    "bayes_agg_premium_fullhist",
    "bayes_freq_premium",
    "build_grid",
    "check_rule",
    "empirical_relativity",
    "hmse_empirical",
    "hmse_eval",
    "marginal_grid",
    "mse_comparison_mc",
    "optimal_relativity_dependent",
    "optimal_relativity_frequency",
    "optimal_relativity_severity",
    "rule_dominance_check",
    "severity_marginal_quantile",
    "simulate_paths",
    "threshold_scan",
    "unconditional_level_distribution",
]
