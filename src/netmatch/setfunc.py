"""Set functions over the source ground set, and their lattice axioms.

A capacity-style function is a *polymatroid* (normalized, monotone,
submodular); a conditional-entropy-style function is a *co-polymatroid*
(normalized, monotone, supermodular).  Axiom checks return a violation
witness that re-evaluates to a genuine violation.  The sandwich test of
:mod:`netmatch.regions` builds on them, and this module solves no LP.

A set function over a ground set of k names is one tuple of 2^k values
indexed by subset bitmask: bit p stands for ``ground[p]``, and index 0,
the empty set, holds 0.  :func:`subset_masks` gives the nonempty masks in
canonical order, by size and then lexicographically by member positions,
which is the row and witness order everywhere in this package.  Names
become masks only when input is parsed (and in ``f(names)``), and masks
become names only where a report or document is built.

The checks read the value tuple directly: in float64 if every value is a
float, and otherwise exactly, on integers with inf as a sentinel.  At
tolerance 0 an exact function without inf is decided by the local
(diamond) rule: f(S) <= f(S+i), and f(S+i) + f(S+j) against
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
from .scalars import check_tolerance, is_inf, parse_scalar

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


def subset_labels(ground: Sequence[str]) -> list[str]:
    """:func:`subset_label` of every subset, indexed by mask (the empty set's
    is ""): each label extends that of its mask without the top bit."""
    labels = [""]
    for g in ground:
        labels += [f"{label}+{g}" if label else g for label in labels]
    return labels


def check_label_names(names: Iterable[str]) -> None:
    """Reject non-string names, and names holding ``+`` or ``,``: two subsets could label alike."""
    for name in names:
        if not isinstance(name, str):
            raise DocumentError(f"source names must be strings, got {name!r}")
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
        object.__setattr__(self, "ground", tuple(self.ground))
        object.__setattr__(self, "values", tuple(self.values))
        if not self.ground:
            raise DocumentError("ground set must be nonempty")
        check_label_names(self.ground)
        if len(set(self.ground)) != len(self.ground):
            raise DocumentError("duplicate ground element")
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


def default_tolerance(f: SetFunction, tol):
    """``tol`` checked, or by default 0 for a rational ``f`` and 1e-9 otherwise."""
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


def _first_violation(vals, order, tol, submodular: bool, big=None):
    """The global pair rule, scanned in canonical row-major order.

    Monotone pairs (S strictly inside T, empty set included) come first,
    then pairs S before T of nonempty subsets.  Returns ``(axiom, a, b)``
    with positions in ``order`` of the first violation, or None.  The sums
    and comparisons are those of the pair-by-pair definition, evaluated
    elementwise in ``vals``'s dtype.  ``big``, if given, is inf among exact
    integers: a pair counts only where the side that must stay finite is
    below it, the right one for submodularity and the left for
    supermodularity (no value exceeds big + tol, so monotonicity needs none).
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
        bad = lhs > rhs + tol if submodular else lhs < rhs - tol
        if big is not None:
            bad &= (rhs if submodular else lhs) < big
        bad = np.flatnonzero(bad)
        if bad.size:
            kind = "submodularity" if submodular else "supermodularity"
            return kind, a[bad[0]], b[bad[0]]
    return None


def _check_axioms(f: SetFunction, tol, *, submodular: bool) -> AxiomReport:
    # The masks in canonical order, empty set first; the empty set's value
    # is exactly 0 in whichever arithmetic the check runs.
    masks = (0,) + subset_masks(len(f.ground))
    order = np.array(masks, dtype=np.int64)
    big = None
    if all(isinstance(v, float) for v in f.values[1:]):
        # float64 sums and comparisons are bit-identical to Python's.
        vals, tol = np.array(f.values, dtype=np.float64), float(tol)
    else:
        # Exactly, a float (or numpy scalar) as the rational it is: values
        # and tolerance scaled to integers by their common denominator, so
        # no sum is rounded, and inf as big, past any finite sum plus tol.
        tol = Fraction(tol)
        values = [v.item() if isinstance(v, np.generic) else v for v in f.values]
        ratios = {m: v.as_integer_ratio() for m, v in enumerate(values) if not is_inf(v)}
        scale = math.lcm(tol.denominator, *(d for _, d in ratios.values()))
        tol = tol.numerator * (scale // tol.denominator)
        ints = {m: n * (scale // d) for m, (n, d) in ratios.items()}
        top = max(ints.values())
        if len(ints) < len(values):
            big = top = 2 * top + tol + 1
        # int64 when every sum the checks form fits, Python ints otherwise.
        vals = np.array([ints.get(m, big) for m in range(len(values))],
                        dtype=np.int64 if 2 * top + tol < 2**63 else object)
        if big is None and tol == 0 and _diamonds_hold(vals, len(f.ground), submodular):
            return AxiomReport(True)
    hit = _first_violation(vals, order, tol, submodular, big)
    if hit is None:
        return AxiomReport(True)
    axiom, a, b = hit
    return AxiomReport(False, axiom, (members(masks[a], f.ground), members(masks[b], f.ground)))


def is_polymatroid(f: SetFunction, tol=None) -> AxiomReport:
    """Check normalization, monotonicity and submodularity within ``tol``.

    ``tol`` defaults to 0 for rational-valued functions and 1e-9 for any
    other.  Exact functions without inf at tolerance 0 are decided by the
    local (diamond) rule; otherwise the global rule over every subset pair
    decides.  The witness of a violation is the first violating pair in
    canonical order either way.
    """
    return _check_axioms(f, default_tolerance(f, tol), submodular=True)


def is_copolymatroid(f: SetFunction, tol=None) -> AxiomReport:
    """Mirror of :func:`is_polymatroid` with the supermodular inequality."""
    return _check_axioms(f, default_tolerance(f, tol), submodular=False)


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
    return SetFunction(ground=ground, values=values)
