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
float, and otherwise exactly, on integers with inf as a sentinel.  The
verdict is that of the global rule over every subset pair, but the local
rule decides it first whenever it can, in O(k^2 2^k): every chain step
f(S) - f(S+i), and every diamond f(S+i) + f(S+j) against f(S+i+j) + f(S).
A pair telescopes into at most k steps or floor(k^2/4) diamonds, so when
the worst step times k and the worst diamond deficit times floor(k^2/4)
are within the tolerance, no pair can miss it, and the function passes
without the O(4^k) scan.  On exact integers that test is exact (at
tolerance 0 it is the local rule itself); in float64 a slack of
2^-49 (M + tol), M the largest value, covers every rounding of the test
and of the scan.  Otherwise the scan runs, and a reported witness is
always the first violating pair in canonical order.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DocumentError, LimitError, load_json
from .scalars import PLAIN_TYPES, admit, check_tolerance, integer_ratios, is_inf, parse_scalar

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
    Any other value (a numpy scalar) is stored as :func:`scalars.admit` reads it.
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
        check_source_count(len(self.ground))
        values, required = self.values, (1 << len(self.ground)) - 1
        # Unassigned slots hold None, counted by identity, not by __eq__.
        given = len(values) - 1 - sum(map(operator.is_, values, repeat(None)))
        if len(values) != required + 1 or given != required:
            raise DocumentError("set function must assign a value to every nonempty subset "
                                f"({given} given, {required} required)")
        if values[0] != 0:
            raise DocumentError("the empty set must have value 0")
        if not PLAIN_TYPES.issuperset(map(type, values)) or not all(v >= 0 for v in values):
            object.__setattr__(self, "values", tuple(map(self._admit, range(len(values)), values)))

    def _admit(self, mask: int, value):
        try:
            return admit(value, "value")
        except ValueError as exc:
            raise DocumentError(f"{exc} on subset {sorted(members(mask, self.ground))}") from None

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
#: the ground set size.  The local rule takes its diamonds in blocks of
#: the same size; its k 2^(k-1) chain steps are held at once (4 MB at k=16).
_BLOCK_PAIRS = 1 << 16


@functools.cache
def _edges(k: int):
    """Every chain step (S, S+i) with i not in S, for k elements, as two
    index arrays ``lo`` (S) and ``hi`` (S+i) of shape (k, 2^(k-1)): row i
    holds the masks without bit i in increasing order."""
    t = np.arange(1 << k >> 1)
    bits = 1 << np.arange(k)[:, None]
    lo = (t & (bits - 1)) | ((t & -bits) << 1)
    return lo, lo | bits


def _local_rule_holds(vals, k: int, tol, submodular: bool) -> bool:
    """Whether the local rule proves that :func:`_first_violation` finds no
    violation; False means only that the scan must decide.

    Let δ be the worst chain step f(S) - f(S+i), and ε the worst diamond
    deficit: f(S+i+j) + f(S) - f(S+i) - f(S+j) for submodularity, its
    negative for supermodularity.  A pair S inside T telescopes into at
    most k chain steps, and a pair gap, with p = |A-B| and q = |B-A|, into
    p*q <= floor(k^2/4) diamond gaps (Lovász 1983).  So no pair misses an
    axiom by more than tol when k*δ <= tol and floor(k^2/4)*ε <= tol.

    On exact integers that test is made as stated, so at tolerance 0 it is
    the local rule itself.  ``big`` (inf) takes part as an ordinary
    integer: the scan's guards only drop pairs, so where the plain copy
    has no violation, inf's arithmetic has none either.

    In float64 let u = 2^-53 and values lie in [0, M].  Unless M + tol is
    in [2^-1000, 2^1000] the scan decides; inside it nothing below
    overflows or underflows, and each operation rounds with relative error
    at most u.  Then a computed step is off by at most u*M and has the
    exact sign, so δ <= 0 proves monotonicity outright; a computed
    diamond, the difference of two computed steps, is off by at most
    4u*M; and the scan's sums f(S) + f(T) and its +- tol round by at most
    6u*(M + tol) in all, and never turn a deficit of at most 0 into a
    violation.  So it is enough that k*(δ + u*M) <= tol - 6u*(M + tol),
    and that ε + 4u*M <= 0 or floor(k^2/4)*(ε + 4u*M) <= tol - 6u*(M + tol).
    With e = 2^-49 * (M + tol) >= 15u*(M + tol), the float tests
    ``δ <= 0 or k*(δ + e) <= tol - e`` and ``floor(k^2/4)*(ε + e) <= tol - e``
    imply those bounds after their own three roundings, which cost a
    factor of at most 1 + 4u.
    """
    e = 0
    if vals.dtype == np.float64:
        scale = float(vals.max()) + tol
        if not 2.0**-1000 <= scale <= 2.0**1000:  # inf and nan fail too
            return False
        e = scale * 2.0**-49
    lo, hi = _edges(k)
    steps = vals[hi] - vals[lo]
    # Python scalars (.item()), so no integer product below wraps.
    drop = -steps.min(keepdims=True).item()
    if not (drop <= 0 or k * (drop + e) <= tol - e):
        return False
    if k < 2:
        return True
    # Step row i is indexed by the masks without bit i, a (k-1)-cube, so
    # its diamonds, steps at S+j less steps at S, pair the positions that
    # are the chain steps of k-1 elements.
    lo, hi = (a.ravel() for a in _edges(k - 1))
    cols = max(1, _BLOCK_PAIRS // k)
    worst = []
    for c0 in range(0, lo.size, cols):
        # f(S+i+j) - f(S+j) - f(S+i) + f(S), per row i and column (S, j)
        bends = steps[:, hi[c0:c0 + cols]] - steps[:, lo[c0:c0 + cols]]
        worst.append(bends.max(keepdims=True).item() if submodular
                     else -bends.min(keepdims=True).item())
    bend = max(worst)
    return (k * k // 4) * (bend + e) <= tol - e


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
    """The verdict of the global pair rule within ``tol``, in float64 if
    every nonempty value is a float and exactly otherwise.  The local rule
    (:func:`_local_rule_holds`) decides first, in O(k^2 2^k), whenever it
    proves that the scan would pass; only otherwise does the O(4^k) scan
    run, so a verdict and its witness are always the scan's."""
    k = len(f.ground)
    big = None
    if all(isinstance(v, float) for v in f.values[1:]):
        # float64 sums and comparisons are bit-identical to Python's.
        vals, tol = np.array(f.values, dtype=np.float64), float(tol)
    else:
        # Exactly, a float as the rational it is: the tolerance and the
        # finite values as integers over their common denominator
        # (integer_ratios), so no sum is rounded, and inf as big, past any
        # finite sum plus tol.
        (tol, *ints), _ = integer_ratios([tol] + [v for v in f.values if not is_inf(v)])
        top = max(ints)
        if len(ints) < len(f.values):
            big = top = 2 * top + tol + 1
        ints = iter(ints)
        # int64 when every sum the checks form fits, Python ints otherwise.
        vals = np.array([big if is_inf(v) else next(ints) for v in f.values],
                        dtype=np.int64 if 2 * top + tol < 2**63 else object)
    if _local_rule_holds(vals, k, tol, submodular):
        return AxiomReport(True)
    # The masks in canonical order, empty set first; the empty set's value
    # is exactly 0 in whichever arithmetic the check runs.
    masks = (0,) + subset_masks(k)
    hit = _first_violation(vals, np.array(masks, dtype=np.int64), tol, submodular, big)
    if hit is None:
        return AxiomReport(True)
    axiom, a, b = hit
    return AxiomReport(False, axiom, (members(masks[a], f.ground), members(masks[b], f.ground)))


def is_polymatroid(f: SetFunction, tol=None) -> AxiomReport:
    """Check normalization, monotonicity and submodularity within ``tol``.

    ``tol`` defaults to 0 for rational-valued functions and 1e-9 for any
    other.  The verdict is the global rule's over every subset pair.  The
    local rule passes a function without that O(4^k) scan when its worst
    chain step times k and its worst diamond deficit times floor(k^2/4)
    are within ``tol``, exactly for exact values and with a rounding slack
    of 2^-49 (M + tol) in float64.  The witness of a violation is the
    first violating pair in canonical order.
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
    check_source_count(len(ground))  # before 2^k slots are allocated
    bit = {g: 1 << p for p, g in enumerate(ground)}
    values: list = [Fraction(0)] + [None] * ((1 << len(ground)) - 1)
    # A key that is a subset's label is read by lookup.  The labels are built
    # for a complete document only, so they cost no more than its keys, and
    # only where they name what the split below would: for distinct,
    # nonempty names that stripping keeps.
    labels = {}
    if (len(doc["values"]) == len(values) - 1 and len(bit) == len(ground)
            and all(g.strip() == g != "" for g in ground)):
        labels = {label: mask for mask, label in enumerate(subset_labels(ground)) if mask}
    keys: dict = {}  # mask -> the key that gave its value
    for key, raw in doc["values"].items():
        mask = labels.get(key)
        if mask is None:
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
