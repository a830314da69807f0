"""LDPC codes over q-ary partial-erasure channels.

A partial erasure reveals a set of M candidate symbols instead of one;
this package provides the channel model, a set-valued message-passing
decoder, exact intersection/sumset combinatorics, density evolution
with several sumset-size models, threshold search, and a Monte Carlo
validation harness.
"""

from .channel import PartialErasureChannel
from .combinatorics import (
    binom,
    common_member_intersection_dist,
    common_member_intersection_dist_exact,
    intersection_count,
    intersection_counts,
    intersection_dist,
    intersection_dist_exact,
)
from .decoder import (
    STATUS_STALLED,
    STATUS_SUCCESS,
    DecodeResult,
    DecodingInconsistency,
    ctv_message,
    decode,
    vtc_message,
)
from .density_evolution import (
    DeConfig,
    DeResult,
    check_update,
    initial_vtc_dist,
    run,
    threshold_search,
    variable_update,
)
from .gf import GF
from .ldpc import DegreeDistribution, TannerGraph, build_regular
from .simulation import TrialReport, run_trials
from .sumset_models import (
    MODEL_KINDS,
    EnumerationBudgetError,
    SumsetBounds,
    SumsetSizeModel,
    balls_dist,
    bound_dist,
    coverage_transition_matrix,
    exact_dist,
    exact_dist_rational,
    monte_carlo_dist,
    occupancy_dist,
    sumset_bounds,
    union_model_dist,
)
from .symbol_sets import SymbolSet, intersect, sumset

__all__ = [
    "GF",
    "SymbolSet",
    "sumset",
    "intersect",
    "PartialErasureChannel",
    "TannerGraph",
    "DegreeDistribution",
    "build_regular",
    "decode",
    "ctv_message",
    "vtc_message",
    "DecodeResult",
    "DecodingInconsistency",
    "STATUS_SUCCESS",
    "STATUS_STALLED",
    "binom",
    "intersection_count",
    "intersection_counts",
    "intersection_dist",
    "intersection_dist_exact",
    "common_member_intersection_dist",
    "common_member_intersection_dist_exact",
    "SumsetBounds",
    "sumset_bounds",
    "bound_dist",
    "exact_dist",
    "exact_dist_rational",
    "monte_carlo_dist",
    "coverage_transition_matrix",
    "occupancy_dist",
    "balls_dist",
    "union_model_dist",
    "SumsetSizeModel",
    "MODEL_KINDS",
    "EnumerationBudgetError",
    "DeConfig",
    "DeResult",
    "initial_vtc_dist",
    "check_update",
    "variable_update",
    "run",
    "threshold_search",
    "TrialReport",
    "run_trials",
]

__version__ = "0.1.0"
