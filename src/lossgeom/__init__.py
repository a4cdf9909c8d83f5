"""Geometric calculus of multiclass proper losses.

A proper loss is represented by the concave support function of its
superprediction set (the conditional Bayes risk) together with a
0-homogeneous supergradient selection (the loss map).  On top of that
representation the package provides closed-form loss families, antipolar
(inverse) losses and the induced substitution function, canonical
normalization, maximum shifting, Bregman regret, and composition of losses
through combiner Bayes risks with properness guaranteed.
"""

__version__ = "0.1.0"

from .calculus import (
    MSumSpec,
    compose,
    dual_msum,
    msum,
    normalize_canonical,
    scale_translate,
    shift_maximum,
)
from .divergence import (
    RegretReport,
    SuiteReport,
    anti_sip,
    bregman,
    regret_report,
    verify_all,
    weight_function,
)
from .duality import (
    AntipolarResult,
    antigauge,
    antipolar_bayes_risk,
    antipolar_loss,
    canonical_link_composite,
    check_pseudo_inverse,
    substitute,
)
from .families import (
    beta_gauge,
    brier_loss,
    cnorm_loss,
    cobb_douglas_loss,
    constant_loss,
    log_loss,
    norm_loss,
    psi_gauge,
    zero_one_loss,
)
from .geometry import (
    BayesRisk,
    ProperLoss,
    SimplexGrid,
    check_properness,
    inner,
    normalize_direction,
    numeric_supergradient,
    simplex_grid,
)
from .specs import SpecError, build_loss, loss_from_text, parse_loss_spec

__all__ = [
    "__version__",
    "MSumSpec",
    "compose",
    "dual_msum",
    "msum",
    "normalize_canonical",
    "scale_translate",
    "shift_maximum",
    "RegretReport",
    "SuiteReport",
    "anti_sip",
    "bregman",
    "regret_report",
    "verify_all",
    "weight_function",
    "AntipolarResult",
    "antigauge",
    "antipolar_bayes_risk",
    "antipolar_loss",
    "canonical_link_composite",
    "check_pseudo_inverse",
    "substitute",
    "beta_gauge",
    "brier_loss",
    "cnorm_loss",
    "cobb_douglas_loss",
    "constant_loss",
    "log_loss",
    "norm_loss",
    "psi_gauge",
    "zero_one_loss",
    "BayesRisk",
    "ProperLoss",
    "SimplexGrid",
    "check_properness",
    "inner",
    "normalize_direction",
    "numeric_supergradient",
    "simplex_grid",
    "SpecError",
    "build_loss",
    "loss_from_text",
    "parse_loss_spec",
]
