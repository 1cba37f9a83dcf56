"""Desk-scale Monte-Carlo validation of the random-binning construction.

Every edge (i, j) gets an index set of size floor(2^{n (c_ij + tau - delta)})
(clamped to at least 1) and an independent uniformly random binning table
from node i's inputs to that index set.  One encoder, ``_encode``, chains
the tables in topological order over arrays of source blocks: one block
for :func:`propagate` and for each trial's transmitted block, the whole
candidate space for decoding.  One decoder scan, ``_scan``, finds per sink
the typical candidates received identically to the transmitted block
(the joint-typicality decoder outputs the unique such preimage); both
:func:`decode` and :func:`estimate_error` use it.  The empirical per-sink
error rate is estimated over many trials with a fresh random code per
trial by default.

The decoder enumerates the whole candidate space, so this is strictly a
desk-scale tool; enumeration and table sizes are guarded by configurable
caps.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .entropy import SourceModel, check_source_names, joint_entropy, validate_model
from .errors import LimitError
from .graph import Network, is_normalized, validate_acyclic
from .scalars import format_scalar, is_inf, round_float
from .setfunc import iter_nonempty_subsets

#: Largest binning-table domain that will be materialized.
DEFAULT_MAX_TABLE_ENTRIES = 1 << 24
#: Largest candidate space the typicality decoder will enumerate.
DEFAULT_MAX_ENUMERATION = 1 << 24
#: Index sets larger than this overflow the int64 lanes.
MAX_INDEX_SIZE = 1 << 62
#: Candidate-space block size for vectorized decoding.
_BLOCK = 1 << 20


def floor_pow2(exponent: Fraction) -> int:
    """Exact floor(2^exponent) for a nonnegative rational exponent."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    p, q = exponent.numerator, exponent.denominator
    if exponent > 62:
        raise LimitError(f"index-set size 2^{float(exponent):.3g} overflows the configured bound")
    target = 1 << p
    lo, hi = 1, 1 << (p // q + 1)
    while lo < hi:  # largest m with m**q <= 2**p
        mid = (lo + hi + 1) // 2
        if mid**q <= target:
            lo = mid
        else:
            hi = mid - 1
    return lo


class CodeInstance:
    """One realization of the random edge-binning code.

    Holds, per edge, the index-set size and the materialized binning table
    over the tail node's input domain.  Source-node inputs are length-n
    sequences over that source's alphabet; interior-node inputs are the
    tuples of indices arriving on its in-edges (in edge order).  Edges of
    infinite capacity forward their input unchanged (they only arise from
    normalization).  Fully determined by (network, alphabets, n, tau,
    delta, seed).
    """

    def __init__(self, net, alphabets, n, tau, delta, seed,
                 index_sizes, tables, topo_order, node_domain):
        self.net = net
        self.alphabets = alphabets
        self.n = n
        self.tau = tau
        self.delta = delta
        self.seed = seed
        self.index_sizes = index_sizes
        self.tables = tables
        self.topo_order = topo_order
        self.node_domain = node_domain

    @property
    def source_order(self) -> tuple[str, ...]:
        return self.net.sources


def build_code(
    net: Network,
    alphabets,
    n: int,
    tau,
    delta,
    seed,
    *,
    max_table_entries: int = DEFAULT_MAX_TABLE_ENTRIES,
) -> CodeInstance:
    """Draw one random code for the network at rate budget c + tau.

    ``alphabets`` maps each source node to its alphabet size.  Requires a
    normalized acyclic network and 0 < delta < tau.  Deterministic given
    ``seed`` (an int or a numpy SeedSequence).
    """
    tau = Fraction(tau)
    delta = Fraction(delta)
    if not 0 < delta < tau:
        raise ValueError("need 0 < delta < tau")
    if n < 1:
        raise ValueError("block length n must be positive")
    if not is_normalized(net):
        raise ValueError("network must be normalized (no edges into sources)")
    topo = validate_acyclic(net)
    for s in net.sources:
        if s not in alphabets or int(alphabets[s]) < 1:
            raise ValueError(f"missing or invalid alphabet size for source {s!r}")

    rng = np.random.default_rng(seed)
    node_domain: dict[str, int] = {}
    index_sizes: dict[int, int] = {}
    tables: dict[int, np.ndarray] = {}
    for node in topo:
        if node in net.source_set:
            domain = int(alphabets[node]) ** n
        else:
            domain = 1
            for k in net.in_edges(node):
                domain *= index_sizes[k]
        if domain > max_table_entries:
            raise LimitError(
                f"input domain of node {node!r} has {domain} entries, "
                f"past the configured bound {max_table_entries}"
            )
        node_domain[node] = domain
        for k in net.out_edges(node):
            cap = net.edges[k].capacity
            if is_inf(cap):
                index_sizes[k] = domain
                tables[k] = np.arange(domain, dtype=np.int64)
                continue
            size = max(1, floor_pow2(n * (cap + tau - delta)))
            if size > MAX_INDEX_SIZE:
                raise LimitError(f"index set of edge {net.edges[k]} overflows int64")
            index_sizes[k] = size
            tables[k] = rng.integers(0, size, size=domain, dtype=np.int64)
    return CodeInstance(
        net=net, alphabets=dict(alphabets), n=n, tau=tau, delta=delta, seed=seed,
        index_sizes=index_sizes, tables=tables, topo_order=topo, node_domain=node_domain,
    )


def _sequence_code(seq: Sequence[int], alphabet: int) -> int:
    code = 0
    for sym in seq:
        if not 0 <= sym < alphabet:
            raise ValueError(f"symbol {sym!r} outside alphabet of size {alphabet}")
        code = code * alphabet + sym
    return code


def _encode(code: CodeInstance, source_codes: dict) -> dict:
    """Chain the binning tables on arrays of per-source sequence codes.

    ``source_codes`` maps every source to an equally long int64 array.
    Returns {sink: list of 0-based received-index arrays, one per in-edge
    in edge order}.
    """
    net = code.net
    values = dict(source_codes)
    length = len(next(iter(source_codes.values())))
    for node in code.topo_order:
        if node in values or not net.out_edges(node):
            continue
        composite = np.zeros(length, dtype=np.int64)
        for k in net.in_edges(node):
            idx = code.tables[k][values[net.edges[k].tail]]
            composite = composite * code.index_sizes[k] + idx
        values[node] = composite
    return {
        t: [code.tables[k][values[net.edges[k].tail]] for k in net.in_edges(t)]
        for t in net.sinks
    }


def propagate(code: CodeInstance, x: Sequence[Sequence[int]]) -> dict:
    """Run the encoders on one source block.

    ``x`` is a length-n sequence of symbol tuples, one coordinate per
    source in network source order.  Returns {sink: tuple of received
    edge indices}, 1-based, ordered like the sink's in-edges.
    """
    if len(x) != code.n:
        raise ValueError(f"input block has length {len(x)}, expected n={code.n}")
    source_codes = {}
    for pos, s in enumerate(code.source_order):
        seq = [step[pos] for step in x]
        source_codes[s] = np.array([_sequence_code(seq, code.alphabets[s])], dtype=np.int64)
    received = _encode(code, source_codes)
    return {t: tuple(int(z[0]) + 1 for z in arrays) for t, arrays in received.items()}


def _align_model(net: Network, m: SourceModel) -> SourceModel:
    """Re-key the model so coordinates follow the network's source order."""
    validate_model(m)
    check_source_names(m, net.sources)
    if tuple(m.sources) == tuple(net.sources):
        return m
    perm = [m.sources.index(s) for s in net.sources]
    pmf = {tuple(tup[k] for k in perm): p for tup, p in m.pmf.items()}
    return SourceModel(
        sources=tuple(net.sources),
        alphabet_sizes=tuple(m.alphabet_sizes[k] for k in perm),
        pmf=pmf,
    )


class _CandidateSpace:
    """Vectorized view of all length-n source blocks for one model.

    Precomputes, for every candidate J (joint-sequence code), the
    per-source sequence codes and the typicality mask; these depend only
    on (model, n, lambda), so Monte-Carlo trials share one instance.
    """

    def __init__(self, net: Network, m: SourceModel, n: int, lam: float,
                 max_enumeration: int = DEFAULT_MAX_ENUMERATION):
        if lam <= 0:
            raise ValueError("typicality slack must be positive")
        m = _align_model(net, m)
        self.model = m
        self.n = n
        sizes = m.alphabet_sizes
        joint = 1
        for a in sizes:
            joint *= a
        total = joint**n
        if total > max_enumeration:
            raise LimitError(
                f"candidate space has {total} sequences, past the configured "
                f"bound {max_enumeration}"
            )
        self.joint_size = joint
        self.total = total

        J = np.arange(total, dtype=np.int64)
        digits = np.empty((n, total), dtype=np.int64)
        rem = J
        for k in range(n - 1, -1, -1):
            digits[k] = rem % joint
            rem = rem // joint

        # Per-time joint symbol -> per-source symbol, then sequence codes.
        per_source_sym = []
        rem = np.arange(joint, dtype=np.int64)
        for a in reversed(sizes):
            per_source_sym.append(rem % a)
            rem = rem // a
        per_source_sym.reverse()
        self.source_codes = {}
        for pos, s in enumerate(m.sources):
            symbol_of = per_source_sym[pos]
            codes = np.zeros(total, dtype=np.int64)
            for k in range(n):
                codes = codes * sizes[pos] + symbol_of[digits[k]]
            self.source_codes[s] = codes

        # Typicality: every nonempty subset's empirical rate within lam.
        prob_of = {tup: float(p) for tup, p in m.pmf.items()}
        typical = np.ones(total, dtype=bool)
        for S in iter_nonempty_subsets(m.sources):
            positions = [k for k, s in enumerate(m.sources) if s in S]
            marg: dict[tuple, float] = {}
            for sym in range(joint):
                tup = tuple(int(per_source_sym[k][sym]) for k in range(len(sizes)))
                key = tuple(tup[k] for k in positions)
                marg[key] = marg.get(key, 0.0) + prob_of.get(tup, 0.0)
            table = np.full(joint, -np.inf)
            for sym in range(joint):
                tup = tuple(int(per_source_sym[k][sym]) for k in range(len(sizes)))
                p = marg[tuple(tup[k] for k in positions)]
                if p > 0.0:
                    table[sym] = math.log2(p)
            logp = np.zeros(total)
            for k in range(n):
                logp += table[digits[k]]
            entropy_rate = joint_entropy(m, S)
            with np.errstate(invalid="ignore"):
                typical &= np.abs(-logp / n - entropy_rate) < lam
        self.typical = typical

    def sequence_of(self, J: int) -> list[tuple]:
        """Decode a candidate id back into a length-n list of symbol tuples."""
        joint = self.joint_size
        sizes = self.model.alphabet_sizes
        symbols = []
        rem = J
        for _ in range(self.n):
            symbols.append(rem % joint)
            rem //= joint
        symbols.reverse()
        out = []
        for sym in symbols:
            tup = []
            for a in reversed(sizes):
                tup.append(sym % a)
                sym //= a
            out.append(tuple(reversed(tup)))
        return out


def _scan(code: CodeInstance, space: _CandidateSpace, targets: dict) -> dict:
    """Find the typical candidates each sink receives as its target.

    ``targets`` maps sinks to tuples of 0-based received indices.  Returns
    {sink: (matches, first matching candidate or -1)}; counting stops once
    a sink has more than one match, so ``matches`` is exact only up to 2.
    """
    matches = {t: 0 for t in targets}
    first = {t: -1 for t in targets}
    for lo in range(0, space.total, _BLOCK):
        live = [t for t in targets if matches[t] < 2]
        if not live:
            break
        hi = min(space.total, lo + _BLOCK)
        received = _encode(code, {s: c[lo:hi] for s, c in space.source_codes.items()})
        for t in live:
            mask = space.typical[lo:hi].copy()
            for arr, want in zip(received[t], targets[t]):
                mask &= arr == want
            found = np.flatnonzero(mask)
            if len(found) and first[t] < 0:
                first[t] = lo + int(found[0])
            matches[t] += len(found)
    return {t: (matches[t], first[t]) for t in targets}


def decode(
    code: CodeInstance,
    m: SourceModel,
    sink: str,
    z_t: Sequence[int],
    lam: float,
    *,
    max_enumeration: int = DEFAULT_MAX_ENUMERATION,
) -> Optional[list]:
    """Joint-typicality decoding at one sink.

    Returns the source block (list of symbol tuples) iff exactly one
    lambda-typical candidate propagates to the received indices ``z_t``
    (1-based, as produced by :func:`propagate`); otherwise None, declaring
    a decoding error.
    """
    if sink not in code.net.sink_set:
        raise ValueError(f"{sink!r} is not a sink node")
    want = tuple(int(z) - 1 for z in z_t)
    width = len(code.net.in_edges(sink))
    if len(want) != width:
        raise ValueError(f"sink {sink!r} receives {width} indices, got {len(want)}")
    space = _CandidateSpace(code.net, m, code.n, float(lam), max_enumeration)
    matches, first = _scan(code, space, {sink: want})[sink]
    return space.sequence_of(first) if matches == 1 else None


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
        return json.dumps(self.to_document(), indent=2, sort_keys=True)


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
    max_table_entries: int = DEFAULT_MAX_TABLE_ENTRIES,
    max_enumeration: int = DEFAULT_MAX_ENUMERATION,
) -> SimResult:
    """Monte-Carlo estimate of each sink's block error probability.

    Each trial samples a fresh source block i.i.d. from the model,
    propagates it, and decodes at every sink; a trial fails at a sink when
    the decoder does not output exactly the transmitted block (atypical
    source blocks therefore count as failures, mirroring the residual term
    of the union bound).  By default every trial also draws a fresh random
    code, estimating the ensemble average; ``fixed_code=True`` reuses one
    code across trials to probe a single deterministic code.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    lam = float(lam)
    space = _CandidateSpace(net, m, n, lam, max_enumeration)
    aligned = space.model

    joint = space.joint_size
    probs = np.zeros(joint)
    sizes = aligned.alphabet_sizes
    for tup, p in aligned.pmf.items():
        sym = 0
        for coord, a in zip(tup, sizes):
            sym = sym * a + coord
        probs[sym] = float(p)
    cumulative = np.cumsum(probs)
    cumulative[-1] = 1.0

    alphabet_map = dict(zip(aligned.sources, sizes))
    code = None
    if fixed_code:
        code = build_code(
            net, alphabet_map, n, tau, delta,
            np.random.SeedSequence(entropy=seed, spawn_key=(0, 0)),
            max_table_entries=max_table_entries,
        )

    errors = {t: 0 for t in net.sinks}
    for trial in range(trials):
        if not fixed_code:
            code = build_code(
                net, alphabet_map, n, tau, delta,
                np.random.SeedSequence(entropy=seed, spawn_key=(trial, 0)),
                max_table_entries=max_table_entries,
            )
        src_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(trial, 1))
        )
        draws = np.searchsorted(cumulative, src_rng.random(n), side="right")
        truth = 0
        for sym in draws:
            truth = truth * joint + int(sym)

        received = _encode(code, {s: c[truth:truth + 1] for s, c in space.source_codes.items()})
        targets = {t: tuple(int(z[0]) for z in arrays) for t, arrays in received.items()}
        for t, (matches, first) in _scan(code, space, targets).items():
            if matches != 1 or first != truth:
                errors[t] += 1

    return SimResult(
        n=n,
        tau=Fraction(tau),
        delta=Fraction(delta),
        lam=lam,
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
