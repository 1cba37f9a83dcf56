"""Finite i.i.d. source models and their joint/conditional entropy rates.

A model fixes a finite alphabet per source node and one joint pmf for a
single symbol time; the process is its i.i.d. extension, so every entropy
rate is a single-letter Shannon entropy in bits per symbol.  Entropies of
rational pmfs are generally irrational, hence computed in floating point;
downstream comparisons against exact capacities go through tolerances or
rational snapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import DocumentError, load_json
from .scalars import parse_probability
from .setfunc import SetFunction, check_label_names, check_source_count

PMF_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SourceModel:
    """Joint pmf of one symbol time over the named source nodes.

    ``pmf`` maps symbol tuples (aligned with ``sources``) to probabilities;
    omitted tuples carry probability zero.  Probabilities may be exact
    rationals or floats; rational pmfs are validated exactly.
    """

    sources: tuple[str, ...]
    alphabet_sizes: tuple[int, ...]
    pmf: Mapping[tuple, object]

    def is_rational(self) -> bool:
        return all(isinstance(p, (Fraction, int)) for p in self.pmf.values())


def validate_model(m: SourceModel) -> None:
    """Check names, arity, symbol ranges and normalization; raise DocumentError."""
    if not m.sources:
        raise DocumentError("source model needs at least one source")
    for name in m.sources:
        if not isinstance(name, str):
            raise DocumentError(f"source names must be strings, got {name!r}")
    check_label_names(m.sources)
    if len(set(m.sources)) != len(m.sources):
        raise DocumentError("duplicate source name")
    if len(m.alphabet_sizes) != len(m.sources):
        raise DocumentError("one alphabet size per source is required")
    for size in m.alphabet_sizes:
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise DocumentError(f"alphabet sizes must be positive integers, got {size!r}")
    for tup, p in m.pmf.items():
        if len(tup) != len(m.sources):
            raise DocumentError(f"symbol tuple {tup!r} has wrong arity")
        for sym, size in zip(tup, m.alphabet_sizes):
            if isinstance(sym, bool) or not isinstance(sym, int) or not 0 <= sym < size:
                raise DocumentError(f"symbol {sym!r} outside alphabet of size {size}")
        if isinstance(p, bool) or not isinstance(p, (Fraction, int, float)):
            raise DocumentError(f"probability {p!r} for {tup!r} is not a Fraction, int or float")
        if isinstance(p, float) and not math.isfinite(p):
            raise DocumentError(f"non-finite probability for {tup!r}")
        if p < 0:
            raise DocumentError(f"negative probability for {tup!r}")
    total = sum(m.pmf.values(), Fraction(0))
    if m.is_rational():
        if total != 1:
            raise DocumentError(f"pmf sums to {total}, not 1")
    elif abs(float(total) - 1.0) > PMF_TOLERANCE:
        raise DocumentError(f"pmf sums to {float(total)!r}, not 1 within {PMF_TOLERANCE}")


def aligned(m: SourceModel, sources) -> SourceModel:
    """The model with its columns in the order of ``sources``, a network's;
    DocumentError unless it names exactly ``sources``.  A model in another
    order is validated, then permuted; its pmf keeps its entry order, so
    every marginal, and so every entropy, is bit-identical."""
    sources = tuple(sources)
    if tuple(m.sources) == sources:
        return m
    if set(m.sources) != set(sources):
        raise DocumentError(f"source model names {sorted(m.sources, key=str)} do not match "
                            f"network sources {sorted(sources, key=str)}")
    validate_model(m)
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
    pmf = {}
    if not isinstance(doc["pmf"], list):
        raise DocumentError("'pmf' must be a list of {symbols, p} entries")
    for entry in doc["pmf"]:
        if not isinstance(entry, dict) or not {"symbols", "p"} <= entry.keys():
            raise DocumentError(f"malformed pmf entry: {entry!r}")
        symbols = entry["symbols"]
        if not isinstance(symbols, list):
            raise DocumentError(f"pmf entry symbols must be a list: {entry!r}")
        for sym in symbols:
            if isinstance(sym, bool) or not isinstance(sym, int):
                raise DocumentError(f"symbol {sym!r} in pmf entry {entry!r} is not an integer")
        tup = tuple(symbols)
        if tup in pmf:
            raise DocumentError(f"duplicate pmf entry for {tup!r}")
        try:
            pmf[tup] = parse_probability(entry["p"])
        except ValueError as exc:
            raise DocumentError(f"pmf entry {tup!r}: {exc}") from exc
    model = SourceModel(
        sources=tuple(sources),
        alphabet_sizes=tuple(alphabets),
        pmf=pmf,
    )
    validate_model(model)
    return model


def _shannon_bits(probabilities: Iterable) -> float:
    total = 0.0
    for p in probabilities:
        p = float(p)
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def _integer_weights(m: SourceModel) -> tuple[dict, int]:
    """The pmf as exact integer weights over one common denominator.

    Float entries convert exactly through ``Fraction(p)``.  Returns
    ``(weights, den)`` with ``pmf[tup] == weights[tup] / den`` exactly and
    the pmf's key order.
    """
    exact = {tup: Fraction(p) for tup, p in m.pmf.items()}
    den = math.lcm(*(p.denominator for p in exact.values()))
    return {tup: p.numerator * (den // p.denominator) for tup, p in exact.items()}, den


def _entropy_bits(weights: Iterable[int], den: int) -> float:
    # int / int is correctly rounded, exactly like float(Fraction(w, den)),
    # so rational pmfs give the same bits as _shannon_bits on the exact
    # marginal probabilities.
    return _shannon_bits([w / den for w in weights])


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
    weights, den = _integer_weights(m)
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


def entropy_profile(m: SourceModel) -> EntropyProfile:
    """Joint and conditional entropies of every nonempty source subset.

    Marginals come from a lattice walk on exact integer weights (see
    :func:`_integer_weights`): starting from the full pmf, each child
    marginal sums out one more coordinate of its parent's, removing
    coordinates in increasing order so every subset is visited once.
    Integer sums are exact and child dicts keep first-occurrence key
    order, so every value is bit-identical to :func:`joint_entropy`.
    """
    k = len(m.sources)
    check_source_count(k)
    validate_model(m)
    weights, den = _integer_weights(m)
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
    # sigma(S) = H(all) - H(rest); conditioning can only reduce entropy, so
    # clip the float dust at zero and set-function nonnegativity holds
    # exactly.  The empty rest has joint entropy 0.0, so sigma(all) = H(all).
    sigma = tuple([max(0.0, joint[full] - joint[full ^ mask]) for mask in range(full + 1)])
    return EntropyProfile(
        sigma=SetFunction(ground=tuple(m.sources), values=sigma),
        joint=SetFunction(ground=tuple(m.sources), values=tuple(joint)),
    )


def binary_entropy(p) -> float:
    """Entropy of a Bernoulli(p) bit, with the 0 log 0 = 0 convention."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    return _shannon_bits((p, 1.0 - p))
