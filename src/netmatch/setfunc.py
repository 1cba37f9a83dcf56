"""Set functions over the source ground set, and their lattice axioms.

A capacity-style function is a *polymatroid* (normalized, monotone,
submodular); a conditional-entropy-style function is a *co-polymatroid*
(normalized, monotone, supermodular).  Axiom checks return a violation
witness that re-evaluates to a genuine violation, and
:func:`sandwich_feasible` decides whether some nonnegative rate vector
fits between a co-polymatroid and a polymatroid, which holds exactly when
the two compare pointwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import DocumentError
from .scalars import check_tolerance, is_inf, parse_scalar, snap_to_rational
from . import simplex


def iter_nonempty_subsets(ground: Sequence[str]) -> tuple[frozenset, ...]:
    """All nonempty subsets of ``ground`` in canonical order.

    Canonical order is by size, then lexicographically by member positions,
    and is the row/witness order used everywhere in this package.
    """
    out = []
    for r in range(1, len(ground) + 1):
        for combo in combinations(range(len(ground)), r):
            out.append(frozenset(ground[k] for k in combo))
    return tuple(out)


def subset_label(subset: Iterable[str], ground: Sequence[str]) -> str:
    members = sorted(subset, key=list(ground).index)
    return "+".join(members)


@dataclass(frozen=True)
class RatePoint:
    """One nonnegative rate per source node (bits per symbol)."""

    rates: dict

    def __post_init__(self):
        for name, value in self.rates.items():
            if value < 0:
                raise ValueError(f"negative rate for {name!r}")

    def total(self, subset: Iterable[str]):
        return sum((self.rates[s] for s in subset), Fraction(0))

    def as_floats(self) -> dict:
        return {k: float(v) for k, v in self.rates.items()}


@dataclass(frozen=True)
class SetFunction:
    """Total map from nonempty subsets of ``ground`` to extended values.

    The empty set is implicitly 0.  Values may be exact rationals, floats
    (entropies) or infinity; they must be nonnegative and not NaN.
    """

    ground: tuple[str, ...]
    values: dict

    def __post_init__(self):
        if not self.ground:
            raise DocumentError("ground set must be nonempty")
        if len(set(self.ground)) != len(self.ground):
            raise DocumentError("duplicate ground element")
        expected = iter_nonempty_subsets(self.ground)
        missing = [S for S in expected if S not in self.values]
        if missing or len(self.values) != len(expected):
            raise DocumentError(
                "set function must assign a value to every nonempty subset "
                f"({len(self.values)} given, {len(expected)} required)"
            )
        for S, v in self.values.items():
            if isinstance(v, float) and math.isnan(v):
                raise DocumentError(f"NaN value on subset {sorted(S)}")
            if not is_inf(v) and v < 0:
                raise DocumentError(f"negative value on subset {sorted(S)}")

    def __call__(self, subset: Iterable[str]):
        S = frozenset(subset)
        if not S:
            return Fraction(0)
        return self.values[S]

    @property
    def subsets(self) -> tuple[frozenset, ...]:
        return iter_nonempty_subsets(self.ground)

    def is_rational(self) -> bool:
        return all(isinstance(v, (Fraction, int)) for v in self.values.values())


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a polymatroid / co-polymatroid check.

    When an axiom fails, ``witness`` holds the first violating subset pair
    in canonical order and ``axiom`` names the broken axiom; re-evaluating
    that axiom on the pair reproduces the violation.
    """

    holds: bool
    axiom: Optional[str] = None
    witness: Optional[tuple[frozenset, frozenset]] = None

    def __bool__(self) -> bool:
        return self.holds


def _default_tol(f: SetFunction, tol):
    if tol is not None:
        return check_tolerance(tol)
    return 0 if f.is_rational() else 1e-9


def _check_axioms(f: SetFunction, tol, *, submodular: bool) -> AxiomReport:
    if f.is_rational():
        # Exact values stay exact: a float tolerance would turn the sums
        # below into floats, and rounding could fake a violation.
        tol = Fraction(tol)
    subsets = (frozenset(),) + f.subsets
    # Monotonicity over comparable pairs (the empty set catches negativity,
    # which the constructor already excludes, but keep the check honest).
    for S in subsets:
        for T in subsets:
            if S != T and S <= T and f(S) > f(T) + tol:
                return AxiomReport(False, "monotonicity", (S, T))
    kind = "submodularity" if submodular else "supermodularity"
    proper = f.subsets
    for i, S in enumerate(proper):
        for T in proper[i + 1:]:
            lhs = f(S & T) + f(S | T)
            rhs = f(S) + f(T)
            bad = lhs > rhs + tol if submodular else lhs < rhs - tol
            if bad:
                return AxiomReport(False, kind, (S, T))
    return AxiomReport(True)


def is_polymatroid(f: SetFunction, tol=None) -> AxiomReport:
    """Check normalization, monotonicity and submodularity within ``tol``.

    ``tol`` defaults to 0 for rational-valued functions and 1e-9 for
    float-valued ones.
    """
    return _check_axioms(f, _default_tol(f, tol), submodular=True)


def is_copolymatroid(f: SetFunction, tol=None) -> AxiomReport:
    """Mirror of :func:`is_polymatroid` with the supermodular inequality."""
    return _check_axioms(f, _default_tol(f, tol), submodular=False)


@dataclass(frozen=True)
class SandwichResult:
    """Result of the sandwich feasibility test.

    ``point`` is a rate vector with sigma(S) <= sum_{i in S} R_i <= rho(S)
    for every nonempty S, or None; in the latter case
    ``violating_subset`` names the first subset where sigma exceeds rho.
    """

    point: Optional[RatePoint]
    violating_subset: Optional[frozenset] = None

    def __bool__(self) -> bool:
        return self.point is not None


def sandwich_feasible(sigma: SetFunction, rho: SetFunction, tol=None) -> SandwichResult:
    """Decide whether nonnegative rates fit between sigma and rho.

    Requires sigma to be a co-polymatroid and rho a polymatroid (verified;
    raises ValueError otherwise, in which case the general LP path of the
    regions module applies).  For such a pair a sandwiched rate point
    exists exactly when sigma(S) <= rho(S) for every subset, so the
    verdict is the pointwise comparison; the witness itself is produced by
    the LP engine on 1e-12-snapped bounds.
    """
    if sigma.ground != rho.ground:
        raise ValueError("sigma and rho must share the same ground set")
    sig_tol = _default_tol(sigma, tol)
    report = is_copolymatroid(sigma, tol)
    if not report:
        raise ValueError(
            f"sigma is not a co-polymatroid ({report.axiom} fails on "
            f"{[sorted(w) for w in report.witness]})"
        )
    report = is_polymatroid(rho, tol)
    if not report:
        raise ValueError(
            f"rho is not a polymatroid ({report.axiom} fails on "
            f"{[sorted(w) for w in report.witness]})"
        )

    for S in sigma.subsets:
        if sigma(S) > rho(S) + sig_tol:
            return SandwichResult(None, S)

    constraints = []
    for S in sigma.subsets:
        lo = snap_to_rational(sigma(S))
        hi = rho(S)
        if not is_inf(hi):
            hi = snap_to_rational(hi)
            if lo > hi:  # tolerated pointwise tie snapped the wrong way
                lo = hi
            constraints.append((S, "<=", hi))
        constraints.append((S, ">=", lo))
    point = simplex.solve_feasibility(sigma.ground, constraints)
    if point is None:
        raise AssertionError(
            "sandwich LP infeasible although sigma <= rho pointwise; "
            "snapped bounds broke an axiom at rounding scale"
        )
    return SandwichResult(RatePoint(point))


def parse_setfunction(text: str) -> SetFunction:
    """Parse a set-function document (JSON).

    Document shape::

        {"ground": ["s1", "s2"],
         "values": {"s1": "1", "s2": "1", "s1+s2": "2"}}

    Subset keys join member names with ``+``; values are rational strings,
    integers, numbers, or ``"inf"``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"set-function document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "ground" not in doc or "values" not in doc:
        raise DocumentError("set-function document needs 'ground' and 'values'")
    ground = doc["ground"]
    if not isinstance(ground, list) or not all(isinstance(g, str) for g in ground):
        raise DocumentError("'ground' must be a list of strings")
    values = {}
    for key, raw in doc["values"].items():
        members = frozenset(part.strip() for part in key.split("+"))
        if not members <= set(ground):
            raise DocumentError(f"subset {key!r} uses elements outside the ground set")
        if isinstance(raw, float):
            values[members] = raw
        else:
            try:
                values[members] = parse_scalar(raw)
            except ValueError as exc:
                raise DocumentError(f"subset {key!r}: {exc}") from exc
    return SetFunction(ground=tuple(ground), values=values)


def setfunction_to_document(f: SetFunction) -> dict:
    from .scalars import format_scalar

    return {
        "ground": list(f.ground),
        "values": {
            subset_label(S, f.ground): format_scalar(f(S)) for S in f.subsets
        },
    }
