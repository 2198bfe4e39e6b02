"""Global stability analysis of discrete-time dynamical networks.

Build a network of delayed update rules, derive a nonnegative stability
matrix from derivative interval bounds, and decide global stability from
its spectral radius.  Delay removal, restriction and expansion transforms
give sharper verdicts on structured networks.
"""

from .errors import (
    ConvergenceError,
    EvalError,
    NetstabError,
    NetworkError,
    ParseError,
    TransformError,
    UnboundedDerivativeError,
)
from .expr import Interval, parse_expression
from .network import (
    InteractionGraph,
    TimeDelayedNetwork,
    build_network,
    dump_network,
    interaction_graph,
    is_non_distributed,
    load_network,
    make_cohen_grossberg,
    max_delay_profile,
)
from .delays import AugmentedNetwork, dedelay, shift_delay, undelay
from .spectral import (
    NonnegMatrix,
    spectral_bracket,
    spectral_radius,
    strongly_connected_components,
    theta_extension,
)
from .stability import (
    StabilityReport,
    analyze,
    jacobian_matrix,
    local_spectral_radius,
    stability_matrix,
)
from .structural import (
    StructuralSetReport,
    find_structural_sets,
    is_basic_structural,
    is_complete_structural,
)
from .transform import delayed_expansion, expand, restrict
from .sim import (
    AttractionVerdict,
    Trajectory,
    conjugacy_check,
    find_fixed_point,
    iterate_orbit,
    verify_global_attraction,
)

__version__ = "0.1.0"

__all__ = [
    "AttractionVerdict",
    "AugmentedNetwork",
    "ConvergenceError",
    "EvalError",
    "InteractionGraph",
    "Interval",
    "NetstabError",
    "NetworkError",
    "NonnegMatrix",
    "ParseError",
    "StabilityReport",
    "StructuralSetReport",
    "TimeDelayedNetwork",
    "Trajectory",
    "TransformError",
    "UnboundedDerivativeError",
    "analyze",
    "build_network",
    "conjugacy_check",
    "dedelay",
    "delayed_expansion",
    "dump_network",
    "expand",
    "find_fixed_point",
    "find_structural_sets",
    "interaction_graph",
    "is_basic_structural",
    "is_complete_structural",
    "is_non_distributed",
    "iterate_orbit",
    "jacobian_matrix",
    "load_network",
    "local_spectral_radius",
    "make_cohen_grossberg",
    "max_delay_profile",
    "parse_expression",
    "restrict",
    "shift_delay",
    "spectral_bracket",
    "spectral_radius",
    "stability_matrix",
    "strongly_connected_components",
    "theta_extension",
    "undelay",
    "verify_global_attraction",
]
