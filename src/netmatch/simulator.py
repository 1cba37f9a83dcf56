"""Desk-scale Monte-Carlo validation of the random-binning construction.

Every edge (i, j) gets an index set of size floor(2^{n (c_ij + tau - delta)})
(clamped to at least 1) and an independent uniformly random bin map from
node i's inputs to that index set.  A bin map is a keyed 64-bit hash, one
key per edge, evaluated only at the inputs an encoding queries, so no
table over an input domain is ever materialized.  One evaluator,
``_inputs``, chains the bin maps in topological order over arrays of
source blocks; a source's own sequence code enters its input as if on
one more infinite-capacity in-edge after all of the network's.  The
joint-typicality decoder outputs the unique typical preimage of a sink's
reception.

:func:`decode` encodes the typical candidates (``_encode``) and compares
the reception with that encoding.  :func:`estimate_error` decides the
trials whose transmitted block is typical in blocks of :data:`_BLOCK`:
a trial decodes at a sink iff one typical candidate, the truth itself,
is received as the transmitted block.  A fixed code encodes the
candidates once and sorts each sink's keys of their receptions
(``_sink_keys``), so a block's counts are two binary searches per sink.
With fresh codes, ``_narrow`` keeps, edge by edge, the (trial,
candidate) pairs that agree with their trial's transmitted block at each
sink, under that trial's keys.  It starts from the groups of candidates
that share the truth's bin on a source edge (or own code, at a source)
and computes node inputs at the survivors only, so one pass of numpy
calls serves the whole block.  A trial whose transmitted block is not
typical is an error at every sink without any encoding.  The empirical
per-sink error rate is estimated over many trials with a fresh random
code per trial by default.

Candidate ids.  With the sources in network order and alphabet sizes
|X_1|, ..., |X_k|, a joint symbol is a number below |X| = |X_1| ... |X_k|
whose mixed-radix digits in those bases are the per-source symbols, the
last source's least significant (the row-major order of
``np.ravel_multi_index``).  A length-n block x_1 ... x_n of joint symbols
has id x_1 |X|^(n-1) + ... + x_n, and a source's sequence code reads its
n symbols the same way in base |X_i|.

Typicality is decided once per candidate space by enumerating every
block, so this is strictly a desk-scale tool; the enumeration stops at
:data:`MAX_ENUMERATION` blocks or :data:`MAX_TYPICALITY_WORK` block-subset
pairs, and a node's input domain must fit int64.
Everything is deterministic given the seed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from decimal import Context
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .entropy import SourceModel, aligned, entropy_profile
from .errors import LimitError, dump_json
from .graph import Network, validate_acyclic
from .scalars import admit, format_scalar, is_inf, round_float, to_float
from .setfunc import check_source_count, subset_masks

#: Largest candidate space the typicality decoder will enumerate.
MAX_ENUMERATION = 1 << 24
#: Most (block, source subset) pairs, (2^k - 1) |X|^n, the typicality test checks.
MAX_TYPICALITY_WORK = MAX_ENUMERATION << 6
_INT64_MAX = (1 << 63) - 1
# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the increment, then the
# finaliser's (shift, multiplier) rounds and its last shift.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
        (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_LAST_SHIFT = np.uint64(31)
#: :func:`_hash` works through longer arrays slice by slice.
_SLICE = 1 << 14
#: Typical trials decided together (see :func:`estimate_error`).
_BLOCK = 16
#: Most (trial, candidate) pairs a block starts from at once for the
#: sinks that hear no source.
_BLOCK_WORDS = 1 << 16


@functools.lru_cache(maxsize=256)
def floor_pow2(exponent: Fraction) -> int:
    """Exact floor(2^exponent) for a rational exponent in [0, 62].

    Forms no power of two.  With e = floor(exponent), the answer lies in
    [2^e, 2^(e+1) - 1]; within that, y = exp(exponent * ln 2) is evaluated
    in decimal, whose ln and exp are correctly rounded, raising the
    precision until one integer remains within y's error bound.  That
    ends: 2^exponent is irrational unless the exponent is the integer e.
    Memoized, since every trial of a simulation draws index sets of the
    same sizes.
    """
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    if exponent > 62:
        raise LimitError("index-set size past 2^62 overflows int64")
    p, q = exponent.numerator, exponent.denominator
    e = p // q
    prec = 40
    while True:
        ctx = Context(prec=prec)
        y = ctx.exp(ctx.divide(ctx.multiply(p, ctx.ln(2)), q))
        # ln 2, the product, the quotient and exp each round by half a unit
        # in the last place; as p ln 2 / q <= 43, |y - 2^(p/q)| < 66 y 10^(1 - prec).
        err = y.scaleb(4 - prec)
        lo = max(int(ctx.subtract(y, err)), 1 << e)
        hi = min(int(ctx.add(y, err)), (2 << e) - 1)
        if lo == hi:
            return lo
        prec *= 2


@dataclass(frozen=True, eq=False)
class CodeInstance:
    """One realization of the random edge-binning code.

    Holds, per node with out-edges, the size of its input domain; per
    edge, the index-set size; and per finite edge, a 64-bit hash key that
    stands for the edge's uniformly random bin map (see :func:`_bin`).  No
    bin table is stored.  A node's input is its :func:`_digits` read as
    one mixed-radix number: the indices arriving on its in-edges, in edge
    order, then at a source its own sequence code.  Edges of infinite
    capacity have no key and forward their input unchanged.  Fully
    determined by (network, alphabets, n, tau, delta, seed).
    """

    net: Network
    alphabets: dict
    n: int
    tau: Fraction
    delta: Fraction
    seed: object
    index_sizes: dict  # edge index -> index-set size
    keys: dict  # finite edge index -> np.uint64 hash key
    domains: dict  # node with out-edges -> input domain size
    topo_order: tuple


def build_code(net: Network, alphabets, n: int, tau, delta, seed) -> CodeInstance:
    """Draw one random code for the network at rate budget c + tau.

    ``alphabets`` maps each source node to its alphabet size.  Requires an
    acyclic network and 0 < delta < tau.  Deterministic given ``seed`` (an
    int or a numpy SeedSequence): edge k's key is entry k of one
    ``generate_state(len(net.edges), np.uint64)`` call on it.

    A key selects edge k's bin map x -> SplitMix64(x * golden + key) mod
    size.  The finaliser is a bijection of 64-bit words, and reducing a
    uniform 64-bit word mod size moves each bin's probability from 1/size
    by less than 2^-64, so the bins are uniform up to a total-variation
    bias of at most size/2^64.  Inputs are numbered in int64, and so are
    a source's sequence codes, so a node with out-edges whose input domain
    passes 2^63 - 1, or any source with more than 2^63 - 1 sequences,
    raises :class:`LimitError`.
    """
    return _draw_code(_code_layout(net, alphabets, n, tau, delta), seed)


def _code_layout(net: Network, alphabets, n: int, tau, delta) -> CodeInstance:
    """Everything of :func:`build_code`'s code that does not depend on the
    seed: the checks, the input domains and the index-set sizes.  Returns
    a code whose ``seed`` is None and whose ``keys`` map every finite edge
    to None, for :func:`_draw_code` to fill in."""
    tau, delta = Fraction(admit(tau, "parameter")), Fraction(admit(delta, "parameter"))
    if not 0 < delta < tau:
        raise ValueError("need 0 < delta < tau")
    if n < 1:
        raise ValueError("block length n must be positive")
    topo = validate_acyclic(net)
    for s in net.sources:
        if s not in alphabets or int(alphabets[s]) < 1:
            raise ValueError(f"missing or invalid alphabet size for source {s!r}")

    slack = tau - delta
    index_sizes: dict[int, int] = {}
    keys: dict[int, None] = {}
    domains: dict[str, int] = {}
    for node in topo:
        # A source's sequence codes are int64 arrays, out-edges or not; the
        # indices reaching a node without out-edges stay separate digits.
        domain = 1
        if node in net.source_set:  # a^64 passes int64 for every a >= 2
            domain = int(alphabets[node]) ** min(n, 64)
        if net.out_edges(node):
            domain *= math.prod(index_sizes[k] for k in net.in_edges(node))
        if domain > _INT64_MAX:
            raise LimitError(f"input domain of node {node!r} has more than "
                             f"2^63 - 1 entries, past int64")
        if not net.out_edges(node):
            continue
        domains[node] = domain
        for k in net.out_edges(node):
            cap = net.edges[k].capacity
            if is_inf(cap):
                index_sizes[k] = domain
                continue
            index_sizes[k] = max(1, floor_pow2(n * (cap + slack)))
            keys[k] = None
    return CodeInstance(
        net=net, alphabets=dict(alphabets), n=n, tau=tau, delta=delta, seed=None,
        index_sizes=index_sizes, keys=keys, domains=domains, topo_order=topo,
    )


def _draw_code(layout: CodeInstance, seed) -> CodeInstance:
    """``layout`` (from :func:`_code_layout`) with its keys drawn from ``seed``."""
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    state = sequence.generate_state(len(layout.net.edges), np.uint64)
    return dataclasses.replace(layout, seed=seed, keys={k: state[k] for k in layout.keys})


def _hash(words: np.ndarray, key, size: int) -> np.ndarray:
    """SplitMix64's finaliser of words * golden + key, mod size, in place.

    ``words`` is a uint64 array that is overwritten, and ``key`` is one
    np.uint64 or a uint64 array of one key per word.  Returns ``words``
    viewed as int64.  Every product and sum wraps mod 2^64.  The passes
    run over :data:`_SLICE` words at a time, which stay in cache between
    them.
    """
    size = np.uint64(size)
    scratch = np.empty(min(len(words), _SLICE), dtype=np.uint64)
    for start in range(0, len(words), _SLICE):
        part = words[start:start + _SLICE]
        spare = scratch[:len(part)]
        part *= _GOLDEN
        part += key[start:start + _SLICE] if np.ndim(key) else key
        for shift, multiplier in _MIX:
            np.right_shift(part, shift, out=spare)
            part ^= spare
            part *= multiplier
        np.right_shift(part, _LAST_SHIFT, out=spare)
        part ^= spare
        # part % size as part - part // size * size: numpy divides by a
        # scalar several times faster than it takes a remainder.
        np.floor_divide(part, size, out=spare)
        spare *= size
        part -= spare
    return words.view(np.int64)


def _bin(code: CodeInstance, k: int, inputs: np.ndarray, trials=None) -> np.ndarray:
    """Edge k's index for each of its tail's inputs (an int64 array).

    ``code`` is one code and ``trials`` is None, or ``code`` is a block
    of codes from :func:`_stack` and ``trials`` gives each input's trial,
    an index into the block.  A tail domain whose
    copies, one per code, fit in the array is hashed whole and gathered
    from; otherwise the inputs alone are hashed.  Both give the same
    values, and neither allocates more entries than there are inputs.
    """
    key = code.keys.get(k)
    if key is None:  # an infinite edge forwards its input
        return inputs
    domain = code.domains[code.net.edges[k].tail]
    size = code.index_sizes[k]
    if trials is None:
        if domain <= len(inputs):
            return _hash(np.arange(domain, dtype=np.uint64), key, size)[inputs]
        return _hash(inputs.astype(np.uint64), key, size)
    if len(key) * domain <= len(inputs):
        words = np.tile(np.arange(domain, dtype=np.uint64), len(key))
        return _hash(words, np.repeat(key, domain), size)[trials * domain + inputs]
    return _hash(inputs.astype(np.uint64), key[trials], size)


def _sequence_code(seq: Sequence[int], alphabet: int) -> int:
    code = 0
    for sym in seq:
        if not 0 <= sym < alphabet:
            raise ValueError(f"symbol {sym!r} outside alphabet of size {alphabet}")
        code = code * alphabet + sym
    return code


def _bare(net: Network, node: str) -> bool:
    """True iff ``node`` is a source with no in-edges, whose input is its
    own sequence code."""
    return node in net.source_set and not net.in_edges(node)


def _digits(code: CodeInstance, node: str, values: dict, codes: dict, trials=None) -> list:
    """The digits of ``node``'s input or reception, as (radix, int64
    array) pairs: each in-edge's index-set size and indices, read from
    ``values`` (as in :func:`_inputs`), then at a source s |X_s|^n and its
    own sequence codes ``codes[s]``, forwarded unhashed."""
    net = code.net
    digits = [(code.index_sizes[k], _bin(code, k, values[net.edges[k].tail], trials))
              for k in net.in_edges(node)]
    if node in net.source_set:
        digits.append((code.alphabets[node] ** code.n, codes[node]))
    return digits


def _inputs(code: CodeInstance, values: dict, codes: dict, nodes, trials=None) -> None:
    """Add to ``values`` the input of each of ``nodes`` that it lacks.

    ``values`` maps nodes to equally long int64 arrays, and ``codes`` maps
    each source whose input it lacks to its sequence codes at the same
    entries; ``nodes`` are in topological order, each after the nodes its
    input needs.  A node's input is its :func:`_digits` read as one
    mixed-radix number.  ``trials`` is as in :func:`_bin`, and sets the
    length when given.
    """
    length = len(trials) if trials is not None else len(next(iter(codes.values())))
    for node in nodes:
        if node in values:
            continue
        composite = np.zeros(length, dtype=np.int64)
        for size, digit in _digits(code, node, values, codes, trials):
            composite *= size
            composite += digit
        values[node] = composite


def _encode(code: CodeInstance, source_codes: dict) -> dict:
    """Chain the edges' bin maps on arrays of per-source sequence codes.

    ``source_codes`` maps every source to an equally long int64 array.
    Returns {sink: its :func:`_digits`, the indices 0-based}.
    """
    net = code.net
    values = {s: c for s, c in source_codes.items() if _bare(net, s)}
    _inputs(code, values, source_codes, [node for node in code.topo_order if net.out_edges(node)])
    return {t: _digits(code, t, values, source_codes) for t in net.sinks}


def propagate(code: CodeInstance, x: Sequence[Sequence[int]]) -> dict:
    """Run the encoders on one source block.

    ``x`` is a length-n sequence of symbol tuples, one coordinate per
    source in network source order.  Returns {sink: tuple of received
    edge indices}, 1-based, ordered like the sink's in-edges and followed
    by the sink's own sequence code if it is a source.
    """
    if len(x) != code.n or any(len(step) != len(code.net.sources) for step in x):
        raise ValueError(f"input block must be n={code.n} tuples of one symbol per source")
    source_codes = {s: np.array([_sequence_code(seq, code.alphabets[s])], dtype=np.int64)
                    for s, seq in zip(code.net.sources, zip(*x))}
    received = _encode(code, source_codes)
    return {t: tuple(int(z[0]) + 1 for _, z in digits) for t, digits in received.items()}


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """A stable argsort of nonnegative int64 ``keys`` below 2^32, by
    16-bit radix passes."""
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    if len(keys) and keys.max() >> 16:
        order = order[np.argsort((keys[order] >> 16).astype(np.uint16), kind="stable")]
    return order


class _CandidateSpace:
    """Every length-n source block of one model, by candidate id.

    The joint-symbol codec, ``symbols`` (per-source symbol arrays indexed
    by joint symbol) and ``probs`` (each joint symbol's probability),
    serves the typicality test, block sampling and :meth:`sequence_of`.
    Only the typical candidates are kept: ``count`` of them, ``ids``, their
    sorted ids (None when every candidate is typical, where a candidate's
    position is its id), and ``codes``, their per-source sequence codes,
    which a fixed code encodes and keys per sink once and fresh-code
    narrowing reads at its survivors.  Both take time
    linear in the candidates and no n x |typical| array: a code is looked
    up in ``halves``, one table for each half of the id's joint symbols,
    and ``groups`` sorts the codes by counting.  Where every block is
    typical, as with uniform sources, the codes and their groups are
    outer sums of the halves' tables and need no lookup or sort.  All of
    it depends only on (model, n, lambda), so Monte-Carlo trials share one
    instance.  The model was checked when built, and is only aligned here.
    """

    def __init__(self, net: Network, m: SourceModel, n: int, lam):
        if n < 1:
            raise ValueError("block length n must be positive")
        if not lam > 0:  # NaN too
            raise ValueError("typicality slack must be positive")
        self.lam = to_float(admit(lam, "parameter"))
        if self.lam == 0:
            raise ValueError("typicality slack is positive but underflows a float")
        m = aligned(m, net.sources)  # joint symbols follow net order
        check_source_count(len(m.sources))
        self.n = n
        sizes = m.alphabet_sizes
        self.alphabets = dict(zip(m.sources, sizes))
        joint = math.prod(sizes)
        # joint**n without forming a huge power: at n = bit_length(bound), joint >= 2 passes it.
        total = joint ** min(n, MAX_ENUMERATION.bit_length())
        if total > MAX_ENUMERATION:
            raise LimitError(f"candidate space has {joint}^{n} sequences, "
                             f"past the bound {MAX_ENUMERATION}")
        subsets = (1 << len(m.sources)) - 1
        if subsets * total > MAX_TYPICALITY_WORK:
            raise LimitError(f"typicality test checks {subsets} subsets of {joint}^{n} "
                             f"sequences, past the bound {MAX_TYPICALITY_WORK}")
        self.joint_size = joint
        self.total = total
        self.place = joint ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.symbols = np.unravel_index(np.arange(joint), sizes)
        self.probs = np.zeros(joint)
        self.probs[np.ravel_multi_index(tuple(zip(*m.pmf)), sizes)] = [
            float(p) for p in m.pmf.values()]
        self.cumulative = np.cumsum(self.probs)
        self.cumulative[-1] = 1.0

        typical = self._typical(m)
        self.count = int(np.count_nonzero(typical))
        self.ids = None if self.count == total else np.flatnonzero(typical)
        del typical
        # {source: its sequence code of each run of n - n//2 joint symbols,
        # by the run's id}; a shorter run reads as one led by joint symbol
        # 0, whose symbols are all 0.
        self.halves = {}
        for (s, a), symbol in zip(self.alphabets.items(), self.symbols):
            table = np.zeros(1, dtype=np.int64)
            for _ in range(n - n // 2):
                table = (table[:, None] * a + symbol).ravel()
            self.halves[s] = table
        self.codes = self._codes(self.ids)

    def _typical(self, m: SourceModel) -> np.ndarray:
        """Mask of the candidates whose every nonempty subset's empirical
        rate is within lambda of its entropy."""
        sizes = m.alphabet_sizes
        entropies = entropy_profile(m).joint.values
        typical = np.ones(self.total, dtype=bool)
        for mask in subset_masks(len(sizes)):
            kept = [k for k in range(len(sizes)) if mask >> k & 1]
            key = np.ravel_multi_index([self.symbols[k] for k in kept], [sizes[k] for k in kept])
            marginal = np.zeros(math.prod(sizes[k] for k in kept))
            np.add.at(marginal, key, self.probs)  # in joint-symbol order
            log_marginal = np.array([math.log2(p) if p > 0.0 else -math.inf for p in marginal])
            table = log_marginal[key]
            if (table == table[0]).all():
                # One term for every symbol, as for a uniform marginal: every
                # block has block 0's rate, so that block decides them all.
                table = table[:1]
            # A block's log-probability adds its symbols' terms in time order
            # from 0.0; row-major outer sums lay the blocks out by id.
            logp = np.zeros(1)
            for _ in range(self.n):
                logp = (logp[:, None] + table).ravel()
            # |-logp / n - h| < lambda, in place.
            np.negative(logp, out=logp)
            logp /= self.n
            logp -= entropies[mask]
            with np.errstate(invalid="ignore"):
                typical &= np.abs(logp, out=logp) < self.lam
        return typical

    def _codes(self, ids) -> dict:
        """{source: sequence code of each candidate in ``ids``}, which are
        sorted and distinct, or None for every candidate.

        An id's first n - n//2 joint symbols and its last n//2 each index
        the source's table in ``halves``; the code is the first entry
        shifted past the second.  When ``ids`` are every candidate, they
        are the row-major pairs of the two indices, and the codes one outer
        sum of the table with its head.
        """
        low = self.n // 2
        cut = self.joint_size ** low
        every = ids is None or len(ids) == self.total
        if not every:
            high, rest = np.divmod(ids, cut)
        codes = {}
        for s, a in self.alphabets.items():
            table = self.halves[s]
            if every:
                codes[s] = (table[:, None] * a**low + table[:cut]).ravel()
            else:
                codes[s] = table[high] * a**low + table[rest]
        return codes

    @functools.cached_property
    def groups(self) -> dict:
        """{source: (its distinct sequence codes among the typical
        candidates, each candidate's group (an index into them), candidate
        positions listed group by group and increasing within a group, and
        each group's offset into that list, one past the end included)}.

        A counting sort over the code range: a group is a code's rank
        among the codes present, and the listing is a stable radix sort
        of the groups.  When every block is typical, each of a source's
        a^n codes is present equally often and is its own group, and one
        outer sum of the two halves' runs, each listed by code by a stable
        sort of the source's ``halves`` table, gives the listing.  Built on
        first use, so only fresh-code narrowing pays for it.
        """
        groups = {}
        low = self.n // 2
        cut = self.joint_size ** low
        for (s, a), codes in zip(self.alphabets.items(), self.codes.values()):
            if len(codes) == self.total:
                width = a**self.n
                table = self.halves[s]
                high = np.argsort(table, kind="stable").reshape(a ** (self.n - low), -1)
                rest = np.argsort(table[:cut], kind="stable").reshape(a**low, -1)
                # Code (u, v) lists high run h in its u-th group, then low
                # run r in its v-th group: [u, v, h, r].
                order = (high[:, None, :, None] * cut + rest[None, :, None, :]).ravel()
                groups[s] = (np.arange(width), codes, order,
                             np.arange(width + 1) * (self.total // width))
                continue
            counts = np.bincount(codes)
            present = counts > 0
            inverse = (np.cumsum(present) - 1)[codes]
            offsets = np.zeros(np.count_nonzero(present) + 1, dtype=np.int64)
            np.cumsum(counts[present], out=offsets[1:])
            groups[s] = (np.flatnonzero(present), inverse, _stable_order(inverse), offsets)
        return groups

    def position(self, J: int) -> Optional[int]:
        """Candidate ``J``'s position among the typical candidates, or None
        if it is not typical."""
        if self.ids is None:
            return J
        pos = int(np.searchsorted(self.ids, J))
        return pos if pos < self.count and self.ids[pos] == J else None

    def sequence_of(self, J: int) -> list[tuple]:
        """Decode a candidate id back into a length-n list of symbol tuples."""
        joint = []
        for _ in range(self.n):
            J, x = divmod(J, self.joint_size)
            joint.append(x)
        return [tuple(int(symbol[x]) for symbol in self.symbols) for x in reversed(joint)]

    def draw(self, rng: np.random.Generator) -> int:
        """The id of a block drawn i.i.d. from the model."""
        return int(np.searchsorted(self.cumulative, rng.random(self.n), side="right") @ self.place)


def _sink_keys(received: dict, count: int) -> dict:
    """{sink: an int64 key per candidate} of ``received``, ``_encode`` of
    ``count`` candidates: its digits as one mixed-radix number, so keys
    are equal iff receptions are.  Where
    that would pass int64, the key so far and the next indices are first
    ranked among their distinct values; ranks are below ``count`` <= 2^24,
    so their product is below 2^48."""
    keys = {}
    for t, digits in received.items():
        key, span = np.zeros(count, dtype=np.int64), 1
        for size, arr in digits:
            if span * size > _INT64_MAX:
                distinct, key = np.unique(key, return_inverse=True)
                ranks, arr = np.unique(arr, return_inverse=True)
                span, size = len(distinct), len(ranks)
            key *= size
            key += arr
            span *= size
        keys[t] = key
    return keys


def _upstream(net: Network, topo: tuple, node: str) -> tuple:
    """The nodes whose inputs ``node``'s input needs, itself included, in
    topological order, but for the sources with no in-edges."""
    needed = {node}
    for v in reversed(topo):
        if v in needed:
            needed.update(net.edges[k].tail for k in net.in_edges(v))
    return tuple(v for v in topo if v in needed and not _bare(net, v))


def _plans(layout: CodeInstance) -> dict:
    """{sink: ((in-edge, the nodes :func:`_inputs` computes for its tail),
    ...)} in the order :func:`_narrow` tests them.

    Edges from a source with no in-edges come first, then the rest, each
    in edge order.  Any order gives the same matches.
    """
    net = layout.net
    return {
        t: tuple((k, _upstream(net, layout.topo_order, net.edges[k].tail))
                 for k in sorted(net.in_edges(t), key=lambda k: not _bare(net, net.edges[k].tail)))
        for t in net.sinks
    }


def _stack(codes: list) -> CodeInstance:
    """Codes drawn from one layout as one block code: its ``seed`` is the
    tuple of their seeds and each edge's key the array of their keys, for
    :func:`_bin` to pick from by trial."""
    keys = np.array([list(code.keys.values()) for code in codes], dtype=np.uint64)
    return dataclasses.replace(codes[0], seed=tuple(code.seed for code in codes),
                               keys=dict(zip(codes[0].keys, keys.T)))


def _narrow(space: _CandidateSpace, block: CodeInstance, truths: np.ndarray,
            plans: dict) -> dict:
    """How many candidates each sink receives as each trial's transmitted
    block under that trial's own fresh code, without encoding every
    candidate.

    ``block`` is :func:`_stack` of the trials' codes, ``truths`` holds the
    transmitted blocks' positions among the typical candidates, one per
    trial, and ``plans`` is :func:`_plans` of the codes' layout.  A
    survivor is a (trial, position) pair; each sink keeps the survivors
    that agree with their trial's truth, one in-edge at a time, computing
    node inputs at the survivors only.  A sink that is a source starts from the group of
    the truth's own sequence code (``space.groups``), which it receives
    unhashed.  A sink that hears a source with no in-edges starts on that
    edge: the source's distinct sequence codes are hashed under every
    trial's key at once, and the groups in the truth's bin become
    survivors.  The other sinks start from every candidate of up to
    :data:`_BLOCK_WORDS` // |candidates| trials at a time and share the
    node inputs over those, so no edge's bins over the whole candidate set
    are computed twice for one code.  Returns {sink: survivors per trial},
    each trial's truth among them.
    """
    net = block.net
    count = len(truths)
    survivors = {t: np.zeros(count, dtype=np.int64) for t in plans}
    fed = [s for s in net.sources if not _bare(net, s)]

    def survive(t, plan, trials, positions, values):
        truth = positions == truths[trials]
        codes = {s: space.codes[s][positions] for s in fed}
        for j, (k, upstream) in enumerate(plan):
            if truth.all():  # only the truths are left
                break
            _inputs(block, values, codes, upstream, trials)
            carried = _bin(block, k, values[net.edges[k].tail], trials)
            want = np.empty(count, dtype=np.int64)
            want[trials[truth]] = carried[truth]
            # Indices, not a mask: numpy compresses by a dense mask slowly.
            keep = np.flatnonzero(carried == want[trials])
            trials, truth = trials[keep], truth[keep]
            if j + 1 < len(plan):
                values = {v: arr[keep] for v, arr in values.items()}
                codes = {s: arr[keep] for s, arr in codes.items()}
        survivors[t] += np.bincount(trials, minlength=count)

    relay_fed = []
    for t, plan in plans.items():
        if t in net.source_set:
            distinct, inverse, order, offsets = space.groups[t]
            trials, kept = np.arange(count), inverse[truths]
        elif plan and _bare(net, net.edges[plan[0][0]].tail):
            (k, _), *plan = plan
            distinct, inverse, order, offsets = space.groups[net.edges[k].tail]
            bins = _bin(block, k, np.tile(distinct, count),
                        np.repeat(np.arange(count), len(distinct))).reshape(count, -1)
            trials, kept = np.nonzero(bins == bins[np.arange(count), inverse[truths]][:, None])
        else:
            relay_fed.append(t)
            continue
        sizes = offsets[kept + 1] - offsets[kept]
        trials = np.repeat(trials, sizes)
        # Each kept group's positions, laid end to end.
        starts = np.repeat(offsets[kept] - np.cumsum(sizes) + sizes, sizes)
        positions = order[starts + np.arange(len(trials))]
        survive(t, plan, trials, positions,
                {s: c[positions] for s, c in space.codes.items() if _bare(net, s)})
    if relay_fed:
        every = space.count
        step = max(1, _BLOCK_WORDS // every)
        for start in range(0, count, step):
            part = np.arange(start, min(start + step, count))
            full = {s: np.tile(c, len(part)) for s, c in space.codes.items() if _bare(net, s)}
            trials, positions = np.repeat(part, every), np.tile(np.arange(every), len(part))
            for t in relay_fed:
                survive(t, plans[t], trials, positions, full)
    return survivors


def decode(
    code: CodeInstance,
    m: SourceModel,
    sink: str,
    z_t: Sequence[int],
    lam: float,
) -> Optional[list]:
    """Joint-typicality decoding at one sink.

    Returns the source block (list of symbol tuples) iff exactly one
    lambda-typical candidate propagates to the received indices ``z_t``
    (1-based, as produced by :func:`propagate`, each within its index
    set); otherwise None, declaring a decoding error.  The model must have
    the code's alphabets.
    """
    if sink not in code.net.sink_set:
        raise ValueError(f"{sink!r} is not a sink node")
    want = tuple(int(z) - 1 for z in z_t)
    space = _CandidateSpace(code.net, m, code.n, lam)
    if any(code.alphabets[s] != a for s, a in space.alphabets.items()):
        raise ValueError(f"model alphabets {space.alphabets} differ from the code's")
    received = _encode(code, space.codes)[sink]
    if len(want) != len(received):
        raise ValueError(f"sink {sink!r} receives {len(received)} indices, got {len(want)}")
    mask = np.ones(space.count, dtype=bool)
    for (size, arr), z in zip(received, want):
        if not 0 <= z < size:
            raise ValueError(f"received index {z + 1} outside 1..{size}")
        mask &= arr == z
    found = np.flatnonzero(mask)
    if len(found) != 1:
        return None
    return space.sequence_of(int(found[0] if space.ids is None else space.ids[found[0]]))


@dataclass(frozen=True)
class SinkStats:
    errors: int
    trials: int

    @property
    def rate(self) -> float:
        return self.errors / self.trials

    @property
    def half_width(self) -> float:
        p = self.rate
        return 1.96 * math.sqrt(p * (1.0 - p) / self.trials)


@dataclass(frozen=True)
class SimResult:
    """Per-sink empirical error rates with 95% normal half-widths."""

    n: int
    tau: Fraction
    delta: Fraction
    lam: float
    trials: int
    seed: int
    fixed_code: bool
    per_sink: dict  # sink -> SinkStats

    def to_document(self) -> dict:
        return {
            "n": self.n,
            "tau": format_scalar(self.tau),
            "delta": format_scalar(self.delta),
            "lambda": format_scalar(self.lam),
            "trials": self.trials,
            "seed": self.seed,
            "fixed_code": self.fixed_code,
            "sinks": {
                t: {
                    "errors": stats.errors,
                    "rate": round_float(stats.rate),
                    "half_width": round_float(stats.half_width),
                }
                for t, stats in self.per_sink.items()
            },
        }

    def to_json(self) -> str:
        return dump_json(self.to_document())


def estimate_error(
    net: Network,
    m: SourceModel,
    n: int,
    tau,
    delta,
    lam,
    trials: int,
    seed: int,
    *,
    fixed_code: bool = False,
) -> SimResult:
    """Monte-Carlo estimate of each sink's block error probability.

    Each trial samples a fresh source block i.i.d. from the model,
    propagates it, and decodes at every sink; a trial fails at a sink when
    the decoder does not output exactly the transmitted block (atypical
    source blocks therefore count as failures at every sink, with no
    decoding, mirroring the residual term of the union bound).  By default
    every trial also draws a fresh random code, estimating the ensemble
    average; ``fixed_code=True`` reuses one code across trials to probe a
    single deterministic code.  Trial k's code and block come from seed
    streams (k, 0) and (k, 1), and a fixed code is trial 0's; a trial
    that would only discard its fresh code draws none, which leaves every
    other stream where it was.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    space = _CandidateSpace(net, m, n, lam)
    layout = _code_layout(net, space.alphabets, n, tau, delta)
    if fixed_code:
        code = _draw_code(layout, np.random.SeedSequence(entropy=seed, spawn_key=(0, 0)))
        keys = _sink_keys(_encode(code, space.codes), space.count)
        ranked = {t: np.sort(key) for t, key in keys.items()}
    else:
        plans = _plans(layout)
    errors = {t: 0 for t in net.sinks}
    block = []  # (trial, truth position) of the typical trials awaiting a decision
    for trial in range(trials):
        truth = space.draw(np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(trial, 1))
        ))
        pos = space.position(truth)
        if pos is not None:
            block.append((trial, pos))
        else:
            for t in errors:
                errors[t] += 1
        if block and (len(block) == _BLOCK or trial == trials - 1):
            done, truths = np.array(block).T
            if fixed_code:  # the candidates whose key equals the truth's
                survivors = {t: ranked[t].searchsorted(key[truths], "right")
                             - ranked[t].searchsorted(key[truths]) for t, key in keys.items()}
            else:
                codes = [_draw_code(layout, np.random.SeedSequence(entropy=seed, spawn_key=(k, 0)))
                         for k in done.tolist()]
                survivors = _narrow(space, _stack(codes), truths, plans)
            for t, count in survivors.items():
                errors[t] += int(np.count_nonzero(count != 1))
            block = []

    return SimResult(
        n=n,
        tau=layout.tau,
        delta=layout.delta,
        lam=space.lam,
        trials=trials,
        seed=seed,
        fixed_code=fixed_code,
        per_sink={t: SinkStats(errors=errors[t], trials=trials) for t in net.sinks},
    )


def butterfly_xor(x1: Sequence[int], x2: Sequence[int]) -> dict:
    """The deterministic butterfly scheme: the center forwards the XOR.

    Each sink receives one source directly plus the XOR stream and
    recovers the other source by XORing them back.  Returns each sink's
    reconstructed pair, which equals (x1, x2) on every input.
    """
    if len(x1) != len(x2):
        raise ValueError(f"length mismatch: {len(x1)} vs {len(x2)}")
    for bit in tuple(x1) + tuple(x2):
        if bit not in (0, 1):
            raise ValueError(f"not a bit: {bit!r}")
    xor = tuple(a ^ b for a, b in zip(x1, x2))
    at_t1 = (tuple(x1), tuple(a ^ b for a, b in zip(x1, xor)))
    at_t2 = (tuple(b ^ a for a, b in zip(xor, x2)), tuple(x2))
    return {"t1": at_t1, "t2": at_t2}


def exhaustive_xor_check(n: int) -> int:
    """Count decoding errors of the XOR scheme over all 2^(2n) bit pairs."""
    failures = 0
    for a in range(1 << n):
        x1 = tuple((a >> k) & 1 for k in range(n - 1, -1, -1))
        for b in range(1 << n):
            x2 = tuple((b >> k) & 1 for k in range(n - 1, -1, -1))
            out = butterfly_xor(x1, x2)
            if out["t1"] != (x1, x2) or out["t2"] != (x1, x2):
                failures += 1
    return failures
