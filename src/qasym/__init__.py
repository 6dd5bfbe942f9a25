"""Numerics for q-special functions and two-level q-Gevrey asymptotics.

The package is organized bottom-up:

- ``frames``       base-q frames tying together the two Gevrey levels
- ``theta``        the q-theta function: evaluation, zeros, lower bounds
- ``fourier``      inverse Fourier transforms with certified tails
- ``geometry``     sector coverings and q-spiral domains
- ``qlaplace``     the q-Laplace transform along a direction
- ``asymptotics``  remainder tables and certified Gevrey-constant fits
- ``equation``     operator hypotheses, coefficient families, residuals
- ``cocycle``      sectorial jumps, correction integrals, level splitting
- ``model``        an integrable kernel family exercising the whole chain
"""

from .asymptotics import (GevreyFit, RemainderRow, RemainderTable, fit_q_gevrey,
                          fit_zero_gevrey_relative, restrict_and_refit)
from .cocycle import (CHOptions, CascadeRow, Cocycle, MultilevelSplit, RaySpec,
                      cauchy_heine_many, ladder_jump, multilevel_split)
from .equation import (CoefficientSeries, EquationSpec, EquationTerm,
                       HypothesesReport, apply_equation_operator, default_spec,
                       manufactured_problem, residual_sweep, validate_hypotheses)
from .fourier import (DecayProfile, InverseFourierResult, complex_quad,
                      inverse_fourier, make_symbol)
from .frames import QFrame
from .geometry import (GoodCovering, Sector, associate_family,
                       geometry_scenario_from_dict, geometry_scenario_to_dict,
                       make_cyclic_covering, validate_good_covering, wrap_angle)
from .model import (ModelScenario, TheoremReport, consecutive_difference,
                    default_scenario, difference_remainder_table, overlap_rate,
                    verify_rate_dichotomy, verify_two_level_theorem)
from .qlaplace import GrowthCertificate, QLaplaceResult, QLaplaceSpec, qlaplace
from .schemas import validate_payload
from .theta import (ThetaSpec, calibrate_theta_constant, spec_for_annulus,
                    spiral_admissible, theta_eval_scaled, theta_lower_bound,
                    theta_qdiff_residual)

__version__ = "0.1.0"

__all__ = [
    "CHOptions", "CascadeRow", "Cocycle", "CoefficientSeries", "DecayProfile",
    "EquationSpec", "EquationTerm", "GevreyFit", "GoodCovering",
    "GrowthCertificate", "HypothesesReport",
    "InverseFourierResult", "ModelScenario", "MultilevelSplit", "QFrame",
    "QLaplaceResult", "QLaplaceSpec", "RaySpec", "RemainderRow", "RemainderTable",
    "Sector", "TheoremReport", "ThetaSpec", "apply_equation_operator",
    "associate_family", "calibrate_theta_constant", "cauchy_heine_many",
    "complex_quad", "consecutive_difference", "default_scenario",
    "default_spec", "difference_remainder_table", "fit_q_gevrey",
    "fit_zero_gevrey_relative", "geometry_scenario_from_dict",
    "geometry_scenario_to_dict",
    "inverse_fourier", "ladder_jump", "make_cyclic_covering", "make_symbol",
    "manufactured_problem", "multilevel_split", "overlap_rate", "qlaplace",
    "residual_sweep", "restrict_and_refit", "spec_for_annulus",
    "spiral_admissible", "theta_eval_scaled", "theta_lower_bound",
    "theta_qdiff_residual", "validate_good_covering", "validate_hypotheses",
    "validate_payload", "verify_rate_dichotomy", "verify_two_level_theorem",
    "wrap_angle",
]
