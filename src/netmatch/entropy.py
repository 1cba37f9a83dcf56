"""Finite i.i.d. source models and their joint/conditional entropy rates.

A model fixes a finite alphabet per source node and one joint pmf for a
single symbol time; the process is its i.i.d. extension, so every entropy
rate is a single-letter Shannon entropy in bits per symbol.  Entropies of
rational pmfs are generally irrational, hence computed in floating point;
downstream comparisons against exact capacities go through tolerances or
rational snapping.

Every marginal is summed exactly, on the pmf scaled to integer weights
over one denominator, and every entropy is the same sequence of float
operations on the marginal's weights in the order their keys first occur
in the pmf.  :func:`entropy_profile` takes one of two routes to all 2^k
marginals: a walk over the subset lattice on dicts, and a numpy engine
that sums every marginal of a dense tensor in one batched pass.  Both
follow that rule, so their floats are bit-identical to each other and to
:func:`joint_entropy`; the engine runs where it is faster and its integer
tensors cannot overflow.

A model computes its integer weights once, when it is built, by
:func:`scalars.integer_ratios`, and keeps them as ``integer_weights``;
both routes, :func:`joint_entropy` and the one check of the pmf's sum read
them.  A rational pmf's entries are checked in bulk; any other pmf, and any
that fails a bulk check, entry by entry, naming the first bad entry.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .errors import DocumentError, load_json
from .scalars import admit, integer_ratios, parse_probability, to_float
from .setfunc import SetFunction, check_label_names, check_source_count

PMF_TOLERANCE = 1e-12
_ENTRY_KEYS = frozenset(("symbols", "p"))
_NESTED = frozenset((list, dict))  # json.loads makes exact types


@dataclass(frozen=True)
class SourceModel:
    """Joint pmf of one symbol time over the named source nodes.

    ``pmf`` maps symbol tuples (aligned with ``sources``) to probabilities;
    omitted tuples carry probability zero.  Each probability is stored as
    :func:`scalars.admit` reads it, so an int64 pmf is rational.  Like a
    Network, a model is checked when it is
    built (DocumentError; its sum once, on ``integer_weights``, the
    :func:`_integer_weights` of the pmf: exactly 1 if rational) and is then
    frozen: tuples, and ``pmf`` a read-only copy in the given entry order,
    which every marginal, and so every entropy bit, follows.
    """

    sources: tuple[str, ...]
    alphabet_sizes: tuple[int, ...]
    pmf: Mapping[tuple, object]
    integer_weights: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.sources, (tuple, list)) and isinstance(self.pmf, Mapping)
                and isinstance(self.alphabet_sizes, (tuple, list))):
            raise DocumentError("source model needs name and size tuples and a pmf mapping")
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "alphabet_sizes", tuple(self.alphabet_sizes))
        object.__setattr__(self, "pmf", MappingProxyType(dict(self.pmf)))
        if not self.sources:
            raise DocumentError("source model needs at least one source")
        check_label_names(self.sources)
        if len(set(self.sources)) != len(self.sources):
            raise DocumentError("duplicate source name")
        if len(self.alphabet_sizes) != len(self.sources):
            raise DocumentError("one alphabet size per source is required")
        for size in self.alphabet_sizes:
            if isinstance(size, bool) or not isinstance(size, int) or size < 1:
                raise DocumentError(f"alphabet sizes must be positive integers, got {size!r}")
        if not self._bulk_checks_pass():
            object.__setattr__(self, "pmf", MappingProxyType(self._check_entries()))
        weights, den = _integer_weights(self)
        total = Fraction(sum(weights.values()), den)
        if self.is_rational():
            if total != 1:
                raise DocumentError(f"pmf sums to {total}, not 1")
        elif abs(to_float(total) - 1.0) > PMF_TOLERANCE:  # the exact sum, rounded once
            raise DocumentError(f"pmf sums to {to_float(total)!r}, not 1 within {PMF_TOLERANCE}")
        object.__setattr__(self, "integer_weights", (weights, den))

    def _bulk_checks_pass(self) -> bool:
        """Whether a rational pmf passes every entry check in bulk: int
        symbols of the right arity inside the alphabets, and Fraction or
        int probabilities, none negative.  If not, :meth:`_check_entries`
        names the first failure, or admits every probability."""
        keys, values = self.pmf.keys(), self.pmf.values()
        if (set(map(type, keys)) != {tuple} or set(map(len, keys)) != {len(self.sources)}
                or set(map(type, itertools.chain.from_iterable(keys))) != {int}
                or not set(map(type, values)) <= {Fraction, int}):
            return False
        for column, size in zip(zip(*keys), self.alphabet_sizes):
            if min(column) < 0 or max(column) >= size:
                return False
        return min([p.numerator for p in values]) >= 0

    def _check_entries(self) -> dict:
        """Each entry's symbols and probability, one at a time, raising
        DocumentError on the first failure; returns the pmf of the admitted
        probabilities."""
        pmf = {}
        for tup, p in self.pmf.items():
            if not isinstance(tup, tuple) or len(tup) != len(self.sources):
                raise DocumentError(f"symbol tuple {tup!r} has wrong arity")
            for sym, size in zip(tup, self.alphabet_sizes):
                if isinstance(sym, bool) or not isinstance(sym, int) or not 0 <= sym < size:
                    raise DocumentError(f"symbol {sym!r} outside alphabet of size {size}")
            try:
                pmf[tup] = admit(p, "probability")
            except ValueError as exc:
                raise DocumentError(f"{exc} for {tup!r}") from None
        return pmf

    def __reduce__(self):  # a read-only pmf view does not pickle
        return SourceModel, (self.sources, self.alphabet_sizes, dict(self.pmf))

    def is_rational(self) -> bool:
        return all(isinstance(p, (Fraction, int)) for p in self.pmf.values())


def aligned(m: SourceModel, sources) -> SourceModel:
    """The model with its columns in the order of ``sources``, a network's;
    DocumentError unless it names exactly ``sources``.  A model in another
    order is permuted into a new model; its pmf keeps its entry order, so
    every marginal, and so every entropy, is bit-identical."""
    sources = tuple(sources)
    if m.sources == sources:
        return m
    if set(m.sources) != set(sources):
        raise DocumentError(f"source model names {sorted(m.sources, key=str)} do not match "
                            f"network sources {sorted(sources, key=str)}")
    columns = [m.sources.index(s) for s in sources]
    return SourceModel(sources, tuple(m.alphabet_sizes[k] for k in columns),
                       {tuple(tup[k] for k in columns): p for tup, p in m.pmf.items()})


def parse_source_model(text: str) -> SourceModel:
    """Parse a source document (JSON) into a validated model.

    Document shape::

        {"sources": ["s1", "s2"],
         "alphabets": [2, 2],
         "pmf": [{"symbols": [0, 0], "p": "1/4"}, ...]}

    The source order fixes tuple coordinates.  ``p`` is a JSON number or
    an exact rational string.
    """
    doc = load_json(text, "source")
    if not isinstance(doc, dict):
        raise DocumentError("source document must be a JSON object")
    for key in ("sources", "alphabets", "pmf"):
        if key not in doc:
            raise DocumentError(f"source document is missing {key!r}")
    sources = doc["sources"]
    if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
        raise DocumentError("'sources' must be a list of strings")
    alphabets = doc["alphabets"]
    if not isinstance(alphabets, list):
        raise DocumentError("'alphabets' must be a list of integers")
    if not isinstance(doc["pmf"], list):
        raise DocumentError("'pmf' must be a list of {symbols, p} entries")
    pmf = _checked_pmf(doc["pmf"], sources, alphabets)
    return SourceModel(sources=tuple(sources), alphabet_sizes=tuple(alphabets), pmf=pmf)


def _checked_pmf(entries: list, sources, alphabets) -> dict:
    """The pmf of ``entries``, each checked in turn; DocumentError names the
    first bad one."""
    pmf = {}
    for entry in entries:
        if not isinstance(entry, dict) or not entry.keys() >= _ENTRY_KEYS:
            raise DocumentError(f"malformed pmf entry: {entry!r}")
        symbols = entry["symbols"]
        # Nested arrays and objects cannot key the pmf; the model checks the rest.
        if not isinstance(symbols, list) or not _NESTED.isdisjoint(map(type, symbols)):
            raise DocumentError(f"pmf entry symbols must be a list of scalars: {entry!r}")
        tup = tuple(symbols)
        if tup in pmf:
            if any(isinstance(s, bool) or not isinstance(s, int) for s in tup):
                # (0, False) and (0, 0.0) equal (0, 0) as keys: the model
                # rejects this entry's symbol instead.
                SourceModel(tuple(sources), tuple(alphabets), {tup: 1})
            raise DocumentError(f"duplicate pmf entry for {tup!r}")
        try:
            pmf[tup] = parse_probability(entry["p"])
        except ValueError as exc:
            raise DocumentError(f"pmf entry {tup!r}: {exc}") from exc
    return pmf


def _shannon_bits(probabilities: Iterable) -> float:
    total = 0.0
    for p in probabilities:
        p = float(p)
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def _integer_weights(m: SourceModel) -> tuple[dict, int]:
    """The pmf as exact integer weights over one common denominator, by
    :func:`scalars.integer_ratios` (a float entry is the dyadic rational it
    is).  Returns ``(weights, den)`` with ``pmf[tup] == weights[tup] / den``
    exactly and the pmf's key order.
    """
    weights, den = integer_ratios(m.pmf.values())
    return dict(zip(m.pmf, weights)), den


def _entropy_bits(weights: Iterable[int], den: int) -> float:
    # int / int is correctly rounded, exactly like float(Fraction(w, den)),
    # so rational pmfs give the same bits as _shannon_bits on the exact
    # marginal probabilities.  A float pmf may sum to a hair over 1, which
    # can leave float dust below zero; clip it, as sigma is clipped.
    return max(0.0, _shannon_bits([w / den for w in weights]))


def joint_entropy(m: SourceModel, subset: Iterable[str]) -> float:
    """Shannon entropy of the subset's marginal, in bits per symbol.

    The marginal is summed exactly on integer weights (see
    :func:`entropy_profile`), so the result is bit-identical to the
    profile's value for the same subset.
    """
    S = frozenset(subset)
    if not S:
        raise ValueError("subset must be nonempty")
    if not S <= set(m.sources):
        raise ValueError(f"unknown sources {sorted(S - set(m.sources))}")
    positions = [k for k, s in enumerate(m.sources) if s in S]
    weights, den = m.integer_weights
    marginal: dict = {}
    for tup, w in weights.items():
        key = tuple(tup[k] for k in positions)
        marginal[key] = marginal.get(key, 0) + w
    return _entropy_bits(marginal.values(), den)


def conditional_entropy(m: SourceModel, subset: Iterable[str]) -> float:
    """H of the subset given the complementary sources: H(all) - H(rest)."""
    S = frozenset(subset)
    if not S:
        raise ValueError("subset must be nonempty")
    rest = frozenset(m.sources) - S
    if not rest:
        return joint_entropy(m, S)
    return joint_entropy(m, m.sources) - joint_entropy(m, rest)


@dataclass(frozen=True)
class EntropyProfile:
    """Per-subset conditional and joint entropies as set functions.

    ``sigma.values[mask]`` is the conditional entropy of the subset
    ``mask`` given its complement, and ``joint.values[mask]`` its plain
    joint entropy, both in bits per symbol; bit p of a mask is
    ``sigma.ground[p]``.  ``sigma(names)`` and ``joint(names)`` read one
    value by member names.
    """

    sigma: SetFunction
    joint: SetFunction


#: Cells the engine's dense tensors may hold, counting a "summed out" slot
#: per axis; it allocates about 48 bytes per cell at its peak.
_TENSOR_CELLS = 1 << 21
#: Fewer sources than this take the dict walk, which is as fast or faster
#: on small lattices than the engine's fixed numpy costs.
_TENSOR_MIN_SOURCES = 6
#: The dict walk touches at most 2^k keys per pmf entry; a tensor with this
#: many times more cells (a sparse pmf over large alphabets) takes the walk.
#: The two routes break even near this ratio.
_TENSOR_SPARSITY = 8


def _joint_by_dict(weights: dict, den: int, k: int) -> list:
    """Every joint entropy by a lattice walk over marginal dicts.

    Starting from the full pmf, each child marginal sums out one more
    coordinate of its parent's, removing coordinates in increasing order so
    every subset is visited once.  A child dict keeps its keys in the order
    they first occur in the pmf.
    """
    full = (1 << k) - 1
    joint = [0.0] * (full + 1)

    def shrink(mask: int, kept: list, marginal: dict, first: int):
        joint[mask] = _entropy_bits(marginal.values(), den)
        if len(kept) == 1:
            return
        for j in range(first, k):
            at = kept.index(j)
            child: dict = {}
            for key, w in marginal.items():
                key = key[:at] + key[at + 1:]
                child[key] = child.get(key, 0) + w
            shrink(mask & ~(1 << j), kept[:at] + kept[at + 1:], child, j + 1)

    shrink(full, list(range(k)), weights, 0)
    return joint


def _marginal_cells(weights: dict, sizes: tuple):
    """The positive cells of every marginal at once: each cell's subset
    mask, first pmf entry and integer weight, as three flat arrays.

    A dense int64 tensor ``W`` over (|X_1|+1, ..., |X_k|+1) holds the
    weights, with index |X_i| on axis i meaning "summed out", and ``F``
    holds each cell's first pmf entry, zero weights included, as they hold
    a key in the dict walk.  One sum (and min) per axis fills every
    marginal; a cell's subset is the set of axes it does not sum out.
    """
    n = len(weights)
    shape = tuple(a + 1 for a in sizes)
    W = np.zeros(shape, np.int64)
    F = np.full(shape, n, np.int64)
    at = tuple(np.array(list(weights), np.intp).T)
    W[at] = list(weights.values())
    F[at] = np.arange(n)
    for i, a in enumerate(sizes):
        head = (slice(None),) * i
        W[head + (a,)] = W[head + (slice(a),)].sum(axis=i)
        F[head + (a,)] = F[head + (slice(a),)].min(axis=i)
    cells = np.flatnonzero(W)
    bits = [np.where(np.arange(a + 1) < a, 1 << i, 0).astype(np.int32)
            for i, a in enumerate(sizes)]
    return sum(np.ix_(*bits)).ravel()[cells], F.ravel()[cells], W.ravel()[cells]


def _joint_by_tensor(weights: dict, den: int, sizes: tuple) -> list:
    """Every joint entropy in one batched numpy pass over
    :func:`_marginal_cells`, bit-identical to :func:`_joint_by_dict`; needs
    ``den`` and the weight total below 2^63.

    Ordering a subset's cells by first pmf entry is the dict walk's key
    order, and each term p log2 p is the same Python float.  The subsets'
    terms are laid end to end, each run led by a 0.0, and one
    ``np.subtract.reduceat`` sums the runs; subtract's reduce runs left
    to right, so it repeats the dict walk's sum operation for operation.
    """
    k, n = len(sizes), len(weights)
    masks, first, weight = _marginal_cells(weights, sizes)
    counts = np.bincount(masks, minlength=1 << k)
    weight = weight[np.argsort(masks * np.int64(n) + first)]
    del masks, first  # each array here is as long as the cells; hold few at once
    distinct, weight = np.unique(weight, return_inverse=True)
    terms = np.array([p * math.log2(p) for p in (w / den for w in distinct.tolist())])[weight]
    del weight
    offsets = np.cumsum(counts) - counts
    joint = np.subtract.reduceat(np.insert(terms, offsets, 0.0), offsets + np.arange(1 << k))
    joint[0] = 0.0  # the empty set; its one cell holds the weight total
    return [max(0.0, h) for h in joint.tolist()]


def entropy_profile(m: SourceModel) -> EntropyProfile:
    """Joint and conditional entropies of every nonempty source subset.

    Marginals are summed exactly on integer weights (see
    :func:`_integer_weights`) by one of two routes with bit-identical
    results.  The numpy engine, :func:`_joint_by_tensor`, sums every
    marginal in one batched pass.  The dict walk, :func:`_joint_by_dict`,
    walks the subset lattice one marginal at a time.  The choice reads the
    model alone: the walk runs at fewer than ``_TENSOR_MIN_SOURCES``
    sources, where numpy's fixed costs do not pay; past ``_TENSOR_CELLS``
    tensor cells, or ``_TENSOR_SPARSITY`` times more cells than the walk's
    2^k keys per pmf entry (a sparse pmf over large alphabets); and when
    den or the weight total reaches 2^63, past int64.  Both list a marginal's
    weights in first-occurrence order of the pmf's entries, turn each into
    p log2 p with the same Python float operations and subtract them from
    0.0 left to right, so every value is bit-identical to
    :func:`joint_entropy`.  The model was checked when built; only the
    source count is checked here.
    """
    k = len(m.sources)
    check_source_count(k)
    weights, den = m.integer_weights
    cells = math.prod(a + 1 for a in m.alphabet_sizes)
    if (k >= _TENSOR_MIN_SOURCES
            and cells <= min(_TENSOR_CELLS, _TENSOR_SPARSITY * len(weights) << k)
            and max(den, sum(weights.values())) < 1 << 63):
        joint = _joint_by_tensor(weights, den, m.alphabet_sizes)
    else:
        joint = _joint_by_dict(weights, den, k)
    full = (1 << k) - 1
    # sigma(S) = H(all) - H(rest); conditioning can only reduce entropy, so
    # clip the float dust at zero and set-function nonnegativity holds
    # exactly.  The empty rest has joint entropy 0.0, so sigma(all) = H(all).
    sigma = [max(0.0, joint[full] - joint[full ^ mask]) for mask in range(full + 1)]
    return EntropyProfile(sigma=SetFunction(ground=m.sources, values=sigma),
                          joint=SetFunction(ground=m.sources, values=joint))


def binary_entropy(p) -> float:
    """Entropy of a Bernoulli(p) bit, with the 0 log 0 = 0 convention."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    return _shannon_bits((p, 1.0 - p))
