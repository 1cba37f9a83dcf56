"""netmatch: transmissibility of correlated sources over capacitated networks.

Decides whether a tuple of correlated sources can be multicast to every
sink of an acyclic network, via the subset-wise comparison of conditional
entropy rates against network capacity functions, the equivalent
rate-region (Slepian-Wolf vs cut-set polyhedra) formulation, and a
desk-scale random-binning simulator that exercises the achievability side
empirically.
"""

from .entropy import (
    EntropyProfile,
    SourceModel,
    binary_entropy,
    conditional_entropy,
    entropy_profile,
    joint_entropy,
    parse_source_model,
)
from .errors import CycleError, DocumentError, LimitError, NetmatchError
from .graph import (
    Edge,
    Network,
    parse_network,
    validate_acyclic,
)
from .mincut import (
    CapacityProfile,
    capacity_profile,
    max_flow,
    rho_n,
    rho_t,
)
from .regions import (
    ConstraintSet,
    FeasibilityResult,
    SandwichResult,
    SeparationReport,
    EquivalenceReport,
    cutset_polyhedron,
    feasible,
    sandwich_feasible,
    separation_check,
    sw_polyhedron,
    equivalence_check,
)
from .setfunc import (
    AxiomReport,
    RatePoint,
    SetFunction,
    is_copolymatroid,
    is_polymatroid,
    parse_setfunction,
)
from .simulator import (
    CodeInstance,
    SimResult,
    build_code,
    butterfly_xor,
    decode,
    estimate_error,
    propagate,
)
from .transmissibility import TransmissibilityReport, check, diagnose

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "CapacityProfile",
    "CodeInstance",
    "ConstraintSet",
    "CycleError",
    "DocumentError",
    "Edge",
    "EntropyProfile",
    "FeasibilityResult",
    "LimitError",
    "NetmatchError",
    "Network",
    "RatePoint",
    "SandwichResult",
    "SeparationReport",
    "SetFunction",
    "SimResult",
    "SourceModel",
    "EquivalenceReport",
    "TransmissibilityReport",
    "binary_entropy",
    "build_code",
    "butterfly_xor",
    "capacity_profile",
    "check",
    "conditional_entropy",
    "cutset_polyhedron",
    "decode",
    "diagnose",
    "entropy_profile",
    "estimate_error",
    "feasible",
    "is_copolymatroid",
    "is_polymatroid",
    "joint_entropy",
    "max_flow",
    "parse_network",
    "parse_setfunction",
    "parse_source_model",
    "propagate",
    "rho_n",
    "rho_t",
    "sandwich_feasible",
    "separation_check",
    "sw_polyhedron",
    "equivalence_check",
    "validate_acyclic",
    "__version__",
]
