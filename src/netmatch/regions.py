"""Rate-region polyhedra and their intersections.

For each sink t the cut-set polyhedron bounds subset rate sums above by
rho_t; the Slepian-Wolf polyhedron bounds them below by conditional
entropies.  The transmissibility condition is equivalent to every per-sink
intersection being nonempty, and the separation condition asks for one
rate point inside all of them at once.  Feasibility runs on the exact
compact dictionary simplex of :mod:`netmatch.simplex`, after float entropy
bounds are snapped to rationals at 1e-12: one solve gives a rate point or
a Farkas certificate, and an infeasible system is explained by the
deletion filter's irreducible subsystem, for which only rows in the
support of the current certificate cost a further solve.

Every check reads one :class:`Analysis`, built by :func:`prepare_profiles`.
:func:`equivalence_check` compares exactly: its pointwise margins are
rho_N(S) minus the snapped bounds of the same Slepian-Wolf rows its LPs
receive, so both routes of the equivalence see identical data.
:func:`transmissibility.check` reads the same analysis but compares float
margins against a tolerance, so the two can differ below the snap grid:
on the DSBS fixture at p = 0.11 (``demo example2``) ``check`` sees the
margin 4.7e-13 and says transmissible, while here the margin is exactly 0
and the verdict is boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import simplex
from .entropy import EntropyProfile, SourceModel, check_source_names, entropy_profile
from .graph import Network, validate_acyclic
from .mincut import CapacityProfile, capacity_profile
from .scalars import check_tolerance, format_scalar, is_inf, snap_to_rational, to_float
from .setfunc import (
    AxiomReport,
    RatePoint,
    SetFunction,
    is_polymatroid,
    members,
    subset_label,
    subset_masks,
)

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ConstraintSet:
    """Subset-sum constraints over a fixed variable order, plus R >= 0.

    Each constraint reads sum_{i in S} R_i <sense> bound with an exact
    rational bound; infinite upper bounds are omitted as vacuous when the
    set is built from a capacity profile.
    """

    name: str
    variables: tuple[str, ...]
    constraints: tuple  # of (frozenset, "<=" | ">=", Fraction)


def cutset_polyhedron(net: Network, sink: str, profile: CapacityProfile) -> ConstraintSet:
    """Upper-bound constraints sum_{i in S} R_i <= rho_t(S) for one sink."""
    if sink not in net.sink_set:
        raise ValueError(f"{sink!r} is not a sink node")
    rho = profile.per_sink[sink]
    rows = [(members(mask, profile.sources), "<=", Fraction(rho[mask]))
            for mask in subset_masks(len(profile.sources)) if not is_inf(rho[mask])]
    return ConstraintSet(name=f"cut[{sink}]", variables=profile.sources, constraints=tuple(rows))


def sw_polyhedron(ep: EntropyProfile) -> ConstraintSet:
    """Lower-bound constraints sum_{i in S} R_i >= H(X_S | X_rest), snapped at
    1e-12, one per nonempty subset in canonical order."""
    ground, sigma = ep.sigma.ground, ep.sigma.values
    rows = [(members(mask, ground), ">=", snap_to_rational(sigma[mask]))
            for mask in subset_masks(len(ground))]
    return ConstraintSet(name="slepian-wolf", variables=ground, constraints=tuple(rows))


@dataclass(frozen=True)
class InfeasibilityWitness:
    """An irreducible subsystem whose bounds contradict each other."""

    constraints: tuple  # of (set_name, frozenset, sense, Fraction)

    def describe(self, variables: Sequence[str]) -> list[str]:
        return [f"{set_name}: R[{subset_label(subset, variables)}] {sense} {format_scalar(bound)}"
                for set_name, subset, sense, bound in self.constraints]


@dataclass(frozen=True)
class FeasibilityResult:
    point: Optional[RatePoint]
    witness: Optional[InfeasibilityWitness] = None

    def __bool__(self) -> bool:
        return self.point is not None


def feasible(constraint_sets: Sequence[ConstraintSet]) -> FeasibilityResult:
    """Find a rate point inside every given polyhedron, or certify failure.

    All sets must share the same variable order.  On failure the witness
    is an irreducible infeasible subsystem found by deletion filtering, so
    every listed constraint is necessary for the contradiction.  The full
    system is solved once either way.
    """
    if not constraint_sets:
        raise ValueError("at least one constraint set is required")
    variables = constraint_sets[0].variables
    for cs in constraint_sets[1:]:
        if cs.variables != variables:
            raise ValueError(
                f"variable order mismatch: {cs.variables} vs {variables}"
            )
    flat = []
    origin = []
    for cs in constraint_sets:
        for subset, sense, bound in cs.constraints:
            flat.append((subset, sense, bound))
            origin.append(cs.name)
    point, core = simplex.point_or_iis(variables, flat)
    if point is not None:
        return FeasibilityResult(RatePoint(point))
    witness = tuple(
        (origin[k], flat[k][0], flat[k][1], flat[k][2]) for k in core
    )
    return FeasibilityResult(None, InfeasibilityWitness(witness))


@dataclass(frozen=True)
class Analysis:
    """One (network, source model) pair, validated and profiled once.

    ``network`` is the parsed network as given.  ``capacity`` and
    ``entropy`` are both over its source order: a mask's bit p is
    ``network.sources[p]`` in every value tuple.
    """

    network: Network
    capacity: CapacityProfile
    entropy: EntropyProfile


def prepare_profiles(net: Network, m: SourceModel) -> Analysis:
    """Check source names, validate, and compute both profiles.

    The one constructor of :class:`Analysis`.  The model's source names
    must equal the network's sources as a set; a model that lists them in
    another order has its entropies re-keyed to the network's order.
    """
    check_source_names(m, net.sources)
    validate_acyclic(net)
    profile = capacity_profile(net)
    ep = entropy_profile(m)
    if profile.sources != tuple(m.sources):
        gather = [0]  # gather[mask] is the network-order mask in the model's bit order
        for s in profile.sources:
            bit = 1 << m.sources.index(s)
            gather += [mask | bit for mask in gather]
        ep = EntropyProfile(*(SetFunction(profile.sources, tuple([f.values[g] for g in gather]))
                              for f in (ep.sigma, ep.joint)))
    return Analysis(network=net, capacity=profile, entropy=ep)


@dataclass(frozen=True)
class EquivalenceReport:
    """Both faces of the matching condition, evaluated independently.

    ``condition_holds``: pointwise sigma(S) <= rho_n(S) on 1e-12-snapped
    entropies (exact comparison).  ``regions_nonempty``: every per-sink
    intersection of the Slepian-Wolf and cut-set polyhedra is nonempty by
    LP.  The two must agree; ``agreement`` is "boundary" when they agree
    only thanks to the tolerance band around a tight instance, and
    "inconsistent" marks an internal-consistency failure.
    """

    sources: tuple[str, ...]
    sinks: tuple[str, ...]
    condition_holds: bool
    min_margin: float
    worst_subset: frozenset
    regions_nonempty: bool
    per_sink: dict  # sink -> FeasibilityResult
    tolerance: float
    agreement: str  # "agree" | "boundary" | "inconsistent"


def equivalence_check(
    net: Network,
    m: SourceModel,
    tol: float = DEFAULT_TOLERANCE,
) -> EquivalenceReport:
    """Evaluate the matching condition and the per-sink region test."""
    check_tolerance(tol)
    analysis = prepare_profiles(net, m)
    profile, sw = analysis.capacity, sw_polyhedron(analysis.entropy)
    # The rows are in canonical order, as are the masks.
    rho = [profile.network_wide[mask] for mask in subset_masks(len(profile.sources))]
    bounds = [bound for _, _, bound in sw.constraints]
    margins = [to_float(r - bound) for r, bound in zip(rho, bounds)]
    holds = all(bound <= r for r, bound in zip(rho, bounds))
    worst = min(range(len(margins)), key=margins.__getitem__)  # the first minimum
    min_margin = margins[worst]

    per_sink = {
        t: feasible([sw, cutset_polyhedron(analysis.network, t, profile)])
        for t in profile.sinks
    }
    nonempty = all(per_sink.values())

    if holds == nonempty:
        agreement = "boundary" if abs(min_margin) <= tol else "agree"
    else:
        agreement = "boundary" if abs(min_margin) <= tol else "inconsistent"
    return EquivalenceReport(
        sources=profile.sources,
        sinks=profile.sinks,
        condition_holds=holds,
        min_margin=min_margin,
        worst_subset=sw.constraints[worst][0],
        regions_nonempty=nonempty,
        per_sink=per_sink,
        tolerance=tol,
        agreement=agreement,
    )


@dataclass(frozen=True)
class SeparationReport:
    """Separability of distributed source coding from network coding.

    Separation holds iff one rate point lies in the Slepian-Wolf region
    and every sink's cut-set region simultaneously: the sources can then
    be compressed to independent rates first and routed as plain flows.
    ``rho_n_polymatroid`` reports the sufficient-condition route (when the
    network-wide capacity function is a polymatroid, the sandwich property
    already yields such a point).
    """

    separable: bool
    witness: Optional[RatePoint]
    infeasibility: Optional[InfeasibilityWitness]
    rho_n_polymatroid: AxiomReport
    sources: tuple[str, ...]
    sinks: tuple[str, ...]


def separation_check(net: Network, m: SourceModel) -> SeparationReport:
    """Decide feasibility of the all-sinks intersection with the SW region.

    Exact on the snapped Slepian-Wolf rows; no tolerance enters.
    """
    analysis = prepare_profiles(net, m)
    profile = analysis.capacity
    cutsets = [cutset_polyhedron(analysis.network, t, profile) for t in profile.sinks]
    result = feasible([sw_polyhedron(analysis.entropy)] + cutsets)
    axiom_report = is_polymatroid(profile.rho_n_function())
    return SeparationReport(
        separable=bool(result),
        witness=result.point,
        infeasibility=result.witness,
        rho_n_polymatroid=axiom_report,
        sources=profile.sources,
        sinks=profile.sinks,
    )
