"""Set functions over the source ground set, and their lattice axioms.

A capacity-style function is a *polymatroid* (normalized, monotone,
submodular); a conditional-entropy-style function is a *co-polymatroid*
(normalized, monotone, supermodular).  Axiom checks return a violation
witness that re-evaluates to a genuine violation, and
:func:`sandwich_feasible` decides whether some nonnegative rate vector
fits between a co-polymatroid and a polymatroid, which holds exactly when
the two compare pointwise.

A set function over a ground set of k names is one tuple of 2^k values
indexed by subset bitmask: bit p stands for ``ground[p]``, and index 0,
the empty set, holds 0.  :func:`subset_masks` gives the nonempty masks in
canonical order, by size and then lexicographically by member positions,
which is the row and witness order everywhere in this package.  Names
become masks only when input is parsed (and in ``f(names)``), and masks
become names only where a report or document is built.

The checks read the value tuple directly.  Rational functions at
tolerance 0 are decided by the local (diamond) rule on integers scaled by
the common denominator: f(S) <= f(S+i), and f(S+i) + f(S+j) against
f(S+i+j) + f(S), which for exact values is equivalent to the global
definition and costs O(k^2 2^k).  Whenever a tolerance applies, the local
rule no longer implies the global one, so the global rule over every
subset pair decides.  Either way a reported witness is the first violating
pair in canonical order, found by the global scan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DocumentError, LimitError, load_json
from .scalars import check_tolerance, is_inf, parse_scalar, snap_to_rational
from . import simplex

#: The most sources whose 2^k subsets get enumerated.
MAX_SOURCES = 16


def check_source_count(k: int) -> None:
    """Raise :class:`LimitError` past :data:`MAX_SOURCES` sources."""
    if k > MAX_SOURCES:
        raise LimitError(f"{k} sources exceed the subset enumeration bound {MAX_SOURCES}")


@functools.cache
def subset_masks(k: int) -> tuple[int, ...]:
    """The nonempty subsets of k elements as bitmasks, in canonical order:
    by size, then lexicographically by member positions."""
    return tuple(sum(1 << p for p in combo)
                 for r in range(1, k + 1) for combo in combinations(range(k), r))


def members(mask: int, ground: Sequence[str]) -> frozenset:
    """The names of the subset of ``ground`` whose bitmask is ``mask``."""
    return frozenset(g for p, g in enumerate(ground) if mask >> p & 1)


def subset_label(subset: Iterable[str], ground: Sequence[str]) -> str:
    return "+".join(sorted(subset, key=list(ground).index))


def check_label_names(names: Iterable[str]) -> None:
    """Reject names holding ``+`` or ``,``: two subsets could label alike."""
    for name in names:
        if "+" in name or "," in name:
            raise DocumentError(f"source name {name!r} contains a subset separator, '+' or ','")


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


@dataclass(frozen=True)
class SetFunction:
    """Total map from the subsets of ``ground`` to extended values.

    ``values[mask]`` is the value of the subset whose bitmask is ``mask``
    (bit p is ``ground[p]``), so ``values`` holds 2^k entries and
    ``values[0]``, the empty set, is 0.  Values may be exact rationals,
    floats (entropies) or infinity; they must be nonnegative and not NaN.
    """

    ground: tuple[str, ...]
    values: tuple

    def __post_init__(self):
        if not self.ground:
            raise DocumentError("ground set must be nonempty")
        if len(set(self.ground)) != len(self.ground):
            raise DocumentError("duplicate ground element")
        check_label_names(self.ground)
        values, required = self.values, (1 << len(self.ground)) - 1
        given = len(values) - 1 - values.count(None)  # unassigned slots hold None
        if len(values) != required + 1 or given != required:
            raise DocumentError("set function must assign a value to every nonempty subset "
                                f"({given} given, {required} required)")
        if values[0] != 0:
            raise DocumentError("the empty set must have value 0")
        if not all(v >= 0 for v in values):  # false for NaN too
            mask, v = next((m, v) for m, v in enumerate(values) if not v >= 0)
            what = "NaN" if v != v else "negative"
            raise DocumentError(f"{what} value on subset {sorted(members(mask, self.ground))}")

    def __call__(self, subset: Iterable[str]):
        """The value of a subset given by its members' names."""
        return self.values[sum(1 << self.ground.index(g) for g in frozenset(subset))]

    def is_rational(self) -> bool:
        return all(isinstance(v, (Fraction, int)) for v in self.values[1:])


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


#: Pair slots one row block of the global scan evaluates at a time, so its
#: temporaries stay bounded (0.5 MB per int64 or float64 array) whatever
#: the ground set size.
_BLOCK_PAIRS = 1 << 16


def _diamonds_hold(vals, k: int, submodular: bool) -> bool:
    """The local rule on exact values: f(S) <= f(S+i), and
    f(S+i) + f(S+j) against f(S+i+j) + f(S) for every S and i != j not in S.

    For exact arithmetic it is equivalent to the global pair rule.
    """
    cube = vals.reshape((2,) * k)
    for a in range(k):
        lo, hi = np.moveaxis(cube, a, 0)
        if np.any(lo > hi):
            return False
        for b in range(a + 1, k):
            face = np.moveaxis(cube, (a, b), (0, 1))
            sides, ends = face[1, 0] + face[0, 1], face[1, 1] + face[0, 0]
            if np.any(sides < ends if submodular else sides > ends):
                return False
    return True


class _Infinity:
    """+inf for object arrays that, unlike float inf, adds to a Fraction past 1e308."""

    __add__ = __radd__ = __sub__ = lambda self, other: self
    __gt__ = lambda self, other: other is not self  # inf > inf is false
    __lt__ = lambda self, other: False


_INFINITY = _Infinity()


def _first_violation(vals, order, tol, submodular: bool):
    """The global pair rule, scanned in canonical row-major order.

    Monotone pairs (S strictly inside T, empty set included) come first,
    then pairs S before T of nonempty subsets.  Returns ``(axiom, a, b)``
    with positions in ``order`` of the first violation, or None.  The sums
    and comparisons are those of the pair-by-pair definition, evaluated
    elementwise in ``vals``'s dtype.
    """
    n = len(order)
    rows = max(1, _BLOCK_PAIRS // n)
    cols = np.arange(n)
    w = vals[order]
    bound = w + tol  # f(T) + tol, per column
    for r0 in range(0, n, rows):
        S = order[r0:r0 + rows, None]
        a, b = np.nonzero(((S & order) == S) & (S != order))
        a += r0
        bad = np.flatnonzero(w[a] > bound[b])
        if bad.size:
            return "monotonicity", a[bad[0]], b[bad[0]]
    for r0 in range(1, n, rows):
        a, b = np.nonzero(cols[r0:r0 + rows, None] < cols)
        a += r0
        S, T = order[a], order[b]
        lhs = vals[S & T] + vals[S | T]
        rhs = w[a] + w[b]
        bad = np.flatnonzero(lhs > rhs + tol if submodular else lhs < rhs - tol)
        if bad.size:
            kind = "submodularity" if submodular else "supermodularity"
            return kind, a[bad[0]], b[bad[0]]
    return None


def _check_axioms(f: SetFunction, tol, *, submodular: bool) -> AxiomReport:
    # The masks in canonical order, empty set first; the empty set's value
    # is exactly 0 in whichever arithmetic the check runs.
    masks = (0,) + subset_masks(len(f.ground))
    order = np.array(masks, dtype=np.int64)
    nonempty = f.values[1:]
    if f.is_rational():
        # Exact values stay exact: scaled to integers by the common
        # denominator (tolerance included), so no sum is ever rounded.
        tol = Fraction(tol)
        scale = math.lcm(tol.denominator, *(v.denominator for v in nonempty))
        tol = tol.numerator * (scale // tol.denominator)
        ints = [0] + [v.numerator * (scale // v.denominator) for v in nonempty]
        # int64 when every sum the checks form fits, Python ints otherwise.
        vals = np.array(ints, dtype=np.int64 if 2 * max(ints) + tol < 2**63 else object)
        if tol == 0 and _diamonds_hold(vals, len(f.ground), submodular):
            return AxiomReport(True)
    elif all(isinstance(v, float) for v in nonempty):
        # float64 sums and comparisons are bit-identical to Python's.
        vals, tol = np.array(f.values, dtype=np.float64), float(tol)
    else:
        vals = np.array(f.values, dtype=object)
        vals[0] = Fraction(0)
        if not any(isinstance(v, float) and math.isfinite(v) for v in nonempty):
            # Rationals and inf: an exact tolerance and inf keep sums exact.
            tol = Fraction(tol)
            vals[[is_inf(v) for v in f.values]] = _INFINITY
    hit = _first_violation(vals, order, tol, submodular)
    if hit is None:
        return AxiomReport(True)
    axiom, a, b = hit
    return AxiomReport(False, axiom, (members(masks[a], f.ground), members(masks[b], f.ground)))


def is_polymatroid(f: SetFunction, tol=None) -> AxiomReport:
    """Check normalization, monotonicity and submodularity within ``tol``.

    ``tol`` defaults to 0 for rational-valued functions and 1e-9 for
    float-valued ones.  Rational functions at tolerance 0 are decided
    exactly by the local (diamond) rule; otherwise the global rule over
    every subset pair decides.  The witness of a violation is the first
    violating pair in canonical order either way.
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

    constraints = []
    for mask in subset_masks(len(sigma.ground)):
        S = members(mask, sigma.ground)
        if sigma.values[mask] > rho.values[mask] + sig_tol:
            return SandwichResult(None, S)
        lo = snap_to_rational(sigma.values[mask])
        hi = rho.values[mask]
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
    integers, numbers, or ``"inf"``.  Two keys naming the same subset, such
    as ``"a+b"`` and ``"b+a"``, are rejected, as is a key given twice.
    """
    doc = load_json(text, "set-function")
    if not isinstance(doc, dict) or "ground" not in doc or "values" not in doc:
        raise DocumentError("set-function document needs 'ground' and 'values'")
    ground = doc["ground"]
    if not isinstance(ground, list) or not all(isinstance(g, str) for g in ground):
        raise DocumentError("'ground' must be a list of strings")
    check_label_names(ground)
    if not isinstance(doc["values"], dict):
        raise DocumentError("'values' must be an object mapping subsets to values")
    bit = {g: 1 << p for p, g in enumerate(ground)}
    values: list = [Fraction(0)] + [None] * ((1 << len(ground)) - 1)
    keys: dict = {}  # mask -> the key that gave its value
    for key, raw in doc["values"].items():
        names = frozenset(part.strip() for part in key.split("+"))
        if not names <= bit.keys():
            raise DocumentError(f"subset {key!r} uses elements outside the ground set")
        mask = sum(bit[g] for g in names)
        if mask in keys:
            raise DocumentError(f"subset {key!r} names the same subset as {keys[mask]!r}")
        keys[mask] = key
        if isinstance(raw, float):
            values[mask] = raw
        else:
            try:
                values[mask] = parse_scalar(raw)
            except ValueError as exc:
                raise DocumentError(f"subset {key!r}: {exc}") from exc
    return SetFunction(ground=tuple(ground), values=tuple(values))
