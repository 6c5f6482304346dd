"""Surprise-modulated utility model for risky and intertemporal choice.

An option's outcome resolution is represented as a tree of staged
events; each stage's revision of the conditional expected value feeds a
convex, loss-weighted surprise kernel, and the summed surprise corrects
the option's expected value multiplicatively.  The package provides the
scalar kernels, exhaustive tree evaluation, matching analytic formulas
for hazard chains, timing risk and dual risk, outcome normalization,
and a CSV-emitting command line.
"""

from .builders import (
    ScenarioSpec,
    build_binary_gamble,
    build_dual_scheme_a,
    build_dual_scheme_b,
    build_hazard_chain,
    build_scenario,
    build_timing_risk,
)
from .closed_form import (
    DualRiskSpec,
    DualScheme,
    HazardSpec,
    TimingComponents,
    TimingRiskSpec,
    discount_factor,
    discount_ratio,
    dual_surprise,
    hazard_stage_surprise,
    hazard_total_surprise,
    mean_delay,
    prob_only_surprise,
    timing_components,
    timing_ratio,
)
from .core import (
    ModelParams,
    Modulation,
    ValidationError,
    surprise_kernel,
    surprise_modulation,
    utility,
)
from .scaling import (
    AffineTransform,
    FixedScale,
    FullScaling,
    NoScaling,
    PartialScaling,
    ScalingMode,
    derive_transform,
    evaluate_scaled,
    parse_scaling_mode,
    scaled_evaluation,
    transform_payoffs,
)
from .tree import (
    Branch,
    EvaluationResult,
    Internal,
    ResolutionNode,
    Terminal,
    ValidationReport,
    evaluate,
    expected_value,
    load_tree,
    stage_surprises,
    tree_from_dict,
    tree_to_dict,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AffineTransform",
    "Branch",
    "DualRiskSpec",
    "DualScheme",
    "EvaluationResult",
    "FixedScale",
    "FullScaling",
    "HazardSpec",
    "Internal",
    "ModelParams",
    "Modulation",
    "NoScaling",
    "PartialScaling",
    "ResolutionNode",
    "ScalingMode",
    "ScenarioSpec",
    "Terminal",
    "TimingComponents",
    "TimingRiskSpec",
    "ValidationError",
    "ValidationReport",
    "build_binary_gamble",
    "build_dual_scheme_a",
    "build_dual_scheme_b",
    "build_hazard_chain",
    "build_scenario",
    "build_timing_risk",
    "derive_transform",
    "discount_factor",
    "discount_ratio",
    "dual_surprise",
    "evaluate",
    "evaluate_scaled",
    "expected_value",
    "hazard_stage_surprise",
    "hazard_total_surprise",
    "load_tree",
    "mean_delay",
    "parse_scaling_mode",
    "prob_only_surprise",
    "scaled_evaluation",
    "stage_surprises",
    "surprise_kernel",
    "surprise_modulation",
    "timing_components",
    "timing_ratio",
    "transform_payoffs",
    "tree_from_dict",
    "tree_to_dict",
    "utility",
    "validate",
]
