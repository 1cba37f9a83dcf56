"""Shared test utilities: seeded random instances, reference oracles and the
acceptance report."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np
import pytest

from netmatch.entropy import SourceModel, joint_entropy
from netmatch.errors import DocumentError, LimitError
from netmatch.graph import Edge, Network
from netmatch.scalars import INF, format_scalar, is_inf
from netmatch.setfunc import AxiomReport, SetFunction, members, subset_label, subset_masks
from netmatch.simulator import (
    SimResult,
    SinkStats,
    _CandidateSpace,
    _encode,
    build_code,
)


def random_network(
    rng: random.Random,
    *,
    max_nodes: int = 8,
    max_sources: int = 3,
    max_sinks: int = 2,
    cap_limit: int = 4,
    edge_prob: float = 0.5,
) -> Network:
    """A random normalized DAG: sources first, edges forward, none into sources."""
    n_nodes = rng.randint(3, max_nodes)
    n_sources = rng.randint(1, min(max_sources, n_nodes - 1))
    n_sinks = rng.randint(1, min(max_sinks, n_nodes - n_sources))
    names = [f"v{k}" for k in range(n_nodes)]
    sources = tuple(names[:n_sources])
    sinks = tuple(names[-n_sinks:])
    edges = []
    for i in range(n_nodes):
        for j in range(max(i + 1, n_sources), n_nodes):
            if rng.random() < edge_prob:
                den = rng.choice((1, 2, 4))
                cap = Fraction(rng.randint(0, cap_limit * den), den)
                edges.append(Edge(names[i], names[j], cap))
    if not edges:  # keep at least one edge so flows are not all trivially zero
        edges.append(Edge(names[0], names[-1], Fraction(1)))
    return Network(nodes=tuple(names), edges=tuple(edges), sources=sources, sinks=sinks)


def random_raw_network(rng: random.Random) -> Network:
    """A random DAG on 2-6 nodes that is not normalized: some source has an
    incoming edge, or is also a sink, or both.  Up to 3 sources and 2 sinks;
    node, source and sink lists are in random order, and about one edge in
    eight has infinite capacity."""
    while True:
        n_nodes = rng.randint(2, 6)
        names = [f"v{k}" for k in range(n_nodes)]
        edges = []
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if rng.random() < 0.5:
                    den = rng.choice((1, 2, 4))
                    cap = INF if rng.random() < 1 / 8 else Fraction(rng.randint(0, 4 * den), den)
                    edges.append(Edge(names[i], names[j], cap))
        net = Network(
            nodes=tuple(rng.sample(names, n_nodes)),
            edges=tuple(edges),
            sources=tuple(rng.sample(names, rng.randint(1, min(3, n_nodes)))),
            sinks=tuple(rng.sample(names, rng.randint(1, min(2, n_nodes)))),
        )
        if net.source_set & net.sink_set or any(e.head in net.source_set for e in edges):
            return net


def layered_network(rng: random.Random, k: int) -> Network:
    """A layered DAG drawn as ``perfbench/gen.py`` ``layered_edges`` draws it,
    so one seed gives the benchmark's instance: k sources, 4 relay layers of
    6 nodes and 3 sinks.  Half of the node pairs of consecutive layers are
    edges, with capacities in (0, 4] on denominators 1, 2 or 4."""
    layers = ([[f"s{i}" for i in range(k)]] + [[f"r{l}_{j}" for j in range(6)] for l in range(4)]
              + [[f"t{j}" for j in range(3)]])
    edges = []
    for upper, lower in zip(layers, layers[1:]):
        pairs = [(u, v) for u in upper for v in lower]
        for u, v in sorted(rng.sample(pairs, len(pairs) // 2), key=pairs.index):
            den = rng.choice((1, 2, 4))
            edges.append(Edge(u, v, Fraction(rng.randint(1, 4 * den), den)))
    return Network(tuple(n for layer in layers for n in layer), tuple(edges),
                   tuple(layers[0]), tuple(layers[-1]))


def _fresh_name(base: str, taken: set) -> str:
    name = base + "'"
    while name in taken:
        name += "'"
    return name


def reference_normalize(net: Network) -> tuple[Network, dict[str, str]]:
    """Split every source that is also a sink or has incoming edges: the
    test oracle for reading a network as given.

    Each offending source ``k`` gets a fresh node ``k'`` feeding it through
    an infinite-capacity edge ``(k', k)``, appended after the network's
    edges; ``k'`` replaces ``k`` in the source set.  Returns the new
    network and {original source: new source}.
    """
    nodes = list(net.nodes)
    edges = list(net.edges)
    sources = list(net.sources)
    sinks = net.sink_set
    taken = set(nodes)
    renaming: dict[str, str] = {s: s for s in net.sources}

    heads_into = {e.head for e in edges}
    for pos, k in enumerate(list(sources)):
        if k in sinks or k in heads_into:
            fresh = _fresh_name(k, taken)
            taken.add(fresh)
            nodes.insert(nodes.index(k), fresh)
            edges.append(Edge(fresh, k, INF))
            sources[pos] = fresh
            renaming[k] = fresh
    result = Network(tuple(nodes), tuple(edges), tuple(sources), tuple(net.sinks))
    return result, renaming


def raw_instances(count: int, seed: int):
    """``count`` seeded (raw network, source model, reference network,
    renamed model, renaming) tuples; the model lists the sources in a
    random order."""
    rng = random.Random(seed)
    for _ in range(count):
        net = random_raw_network(rng)
        m = random_source_model(rng, rng.sample(net.sources, len(net.sources)))
        ref, renaming = reference_normalize(net)
        m_ref = SourceModel(tuple(renaming[s] for s in m.sources), m.alphabet_sizes, m.pmf)
        yield net, m, ref, m_ref, renaming


def random_source_model(
    rng: random.Random,
    sources,
    *,
    min_alphabet: int = 2,
    max_alphabet: int = 3,
    rational: bool = True,
) -> SourceModel:
    """A random joint pmf over small alphabets, exact by default."""
    sources = tuple(sources)
    sizes = tuple(rng.randint(min_alphabet, max_alphabet) for _ in sources)
    tuples = [()]
    for size in sizes:
        tuples = [t + (x,) for t in tuples for x in range(size)]
    weights = [rng.randint(0, 8) for _ in tuples]
    if sum(weights) == 0:
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    if rational:
        pmf = {t: Fraction(w, total) for t, w in zip(tuples, weights) if w}
    else:
        pmf = {t: w / total for t, w in zip(tuples, weights) if w}
    return SourceModel(sources=sources, alphabet_sizes=sizes, pmf=pmf)


def iter_nonempty_subsets(ground: Sequence[str]) -> tuple[frozenset, ...]:
    """All nonempty subsets of ``ground`` as frozensets, in the reference
    canonical order: by size, then lexicographically by member positions."""
    out = []
    for r in range(1, len(ground) + 1):
        for combo in itertools.combinations(range(len(ground)), r):
            out.append(frozenset(ground[k] for k in combo))
    return tuple(out)


def set_function(ground: Sequence[str], values: dict) -> SetFunction:
    """A SetFunction from {frozenset of names: value}; the empty set gets 0
    and a subset left out stays unassigned."""
    ground = tuple(ground)
    vector = [Fraction(0)] + [None] * ((1 << len(ground)) - 1)
    for S, value in values.items():
        vector[sum(1 << ground.index(g) for g in S)] = value
    return SetFunction(ground, tuple(vector))


def subset_values(f: SetFunction) -> dict:
    """{frozenset of names: value} of ``f`` over its nonempty subsets."""
    return {S: f(S) for S in iter_nonempty_subsets(f.ground)}


def marginal_pmf(m: SourceModel, subset) -> dict:
    """Marginal distribution over the given sources, summed exactly."""
    positions = [k for k, s in enumerate(m.sources) if s in frozenset(subset)]
    out: dict = {}
    for tup, p in m.pmf.items():
        key = tuple(tup[k] for k in positions)
        out[key] = out.get(key, Fraction(0)) + p
    return out


def network_to_document(net: Network) -> dict:
    """Inverse of :func:`netmatch.graph.network_from_document` (capacities
    as strings)."""
    return {
        "nodes": list(net.nodes),
        "edges": [
            {"from": e.tail, "to": e.head, "capacity": format_scalar(e.capacity)}
            for e in net.edges
        ],
        "sources": list(net.sources),
        "sinks": list(net.sinks),
    }


def source_model_to_document(m: SourceModel) -> dict:
    entries = []
    for tup in sorted(m.pmf):
        p = m.pmf[tup]
        rendered = format_scalar(p) if isinstance(p, (Fraction, int)) else float(p)
        entries.append({"symbols": list(tup), "p": rendered})
    return {
        "sources": list(m.sources),
        "alphabets": list(m.alphabet_sizes),
        "pmf": entries,
    }


def setfunction_to_document(f: SetFunction) -> dict:
    return {
        "ground": list(f.ground),
        "values": {
            subset_label(members(mask, f.ground), f.ground): format_scalar(f.values[mask])
            for mask in subset_masks(len(f.ground))
        },
    }


def cut_value(net: Network, member_set: Iterable[str]):
    """Total capacity of edges leaving ``member_set`` (Fraction, or inf)."""
    members = frozenset(member_set)
    for name in members:
        if not net.has_node(name):
            raise DocumentError(f"unknown node {name!r}")
    total = Fraction(0)
    for e in net.edges:
        if e.tail in members and e.head not in members:
            if is_inf(e.capacity):
                return INF
            total += e.capacity
    return total


def reference_max_flow(net: Network, sources: Iterable[str], sink: str):
    """Edmonds-Karp: breadth-first augmenting paths from a super-source
    joined to ``sources`` by infinite arcs, on the capacities times the lcm
    of their denominators.

    The max-flow oracle, sharing no code with ``mincut``.  Returns
    ``(value, members)`` as :func:`mincut.max_flow` does: inf and every
    node but the sink when every cut is infinite (an infinite capacity
    counts as one more than the total finite capacity), else the flow
    value and the node set reachable from the sources in the final
    residual graph.  A sink among the sources is reached at once, so its
    value is inf.
    """
    finite = [Fraction(e.capacity) for e in net.edges if not is_inf(e.capacity)]
    den = math.lcm(*(c.denominator for c in finite))
    big = sum(c.numerator * (den // c.denominator) for c in finite) + 1

    def scaled(c) -> int:
        if is_inf(c):
            return big
        c = Fraction(c)
        return c.numerator * (den // c.denominator)

    index = {name: k for k, name in enumerate(net.nodes)}
    root = len(net.nodes)
    adj: list = [[] for _ in range(root + 1)]
    to: list = []
    cap: list = []

    def add(u: int, v: int, c) -> None:
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)

    for e in net.edges:
        add(index[e.tail], index[e.head], scaled(e.capacity))
    for name in dict.fromkeys(sources):
        add(root, index[name], big)
    t = index[sink]
    value = 0
    while value < big:
        parent = {root: None}
        queue = [root]
        for u in queue:
            for a in adj[u]:
                if cap[a] > 0 and to[a] not in parent:
                    parent[to[a]] = a
                    queue.append(to[a])
        if t not in parent:
            return Fraction(value, den), frozenset(net.nodes[u] for u in queue if u != root)
        path = []
        v = t
        while v != root:
            path.append(parent[v])
            v = to[parent[v] ^ 1]
        delta = min(cap[a] for a in path)
        for a in path:
            cap[a] -= delta
            cap[a ^ 1] += delta
        value += delta
    return INF, frozenset(net.nodes) - {sink}


#: Node-count guard for exhaustive cut enumeration.
MAX_ENUMERATION_NODES = 24


def enumerate_min_cut(net: Network, subset: Iterable[str], sink: str):
    """Exhaustive minimum cut: brute force over all admissible member sets.

    Independent of the max-flow path; used as its testing oracle.  Returns
    ``(value, member_set)`` with deterministic tie-breaking (first minimum
    in enumeration order).
    """
    S = frozenset(subset)
    if not S:
        raise ValueError("source subset must be nonempty")
    if sink in S:
        raise ValueError(f"sink {sink!r} is inside the source subset")
    if len(net.nodes) > MAX_ENUMERATION_NODES:
        raise LimitError(f"cut enumeration limited to {MAX_ENUMERATION_NODES} nodes")
    free = [v for v in net.nodes if v not in S and v != sink]
    best_value = None
    best_members = None
    for r in range(len(free) + 1):
        for extra in itertools.combinations(free, r):
            members = S | frozenset(extra)
            value = cut_value(net, members)
            if best_value is None or value < best_value:
                best_value = value
                best_members = members
    return best_value, best_members


def reference_axioms(f: SetFunction, tol=None, *, submodular: bool) -> AxiomReport:
    """The O(4^k) pair-by-pair axiom scan on frozensets: the test oracle.

    Same tolerance defaults as ``is_polymatroid``/``is_copolymatroid``;
    the witness is the first violating pair in canonical order, monotone
    pairs (empty set included) before the proper pairs.  A function whose
    nonempty values are all floats is compared in Python floats; any other
    exactly, every finite value and the tolerance as a Fraction and inf
    kept apart: inf + x is inf, and a Fraction is never converted to a
    float, so values past the float range compare too.
    """
    if tol is None:
        tol = 0 if f.is_rational() else 1e-9
    values = {S: f(S) for S in (frozenset(),) + iter_nonempty_subsets(f.ground)}
    if all(isinstance(v, float) for S, v in values.items() if S):
        tol = float(tol)
    else:
        tol = Fraction(tol)
        values = {S: INF if is_inf(v) else Fraction(v.item() if isinstance(v, np.generic) else v)
                  for S, v in values.items()}

    def plus(x, y):
        return INF if is_inf(x) or is_inf(y) else x + y

    def minus_tol(x):
        return INF if is_inf(x) else x - tol

    proper = iter_nonempty_subsets(f.ground)
    subsets = (frozenset(),) + proper
    for S in subsets:
        for T in subsets:
            if S != T and S <= T and values[S] > plus(values[T], tol):
                return AxiomReport(False, "monotonicity", (S, T))
    kind = "submodularity" if submodular else "supermodularity"
    for i, S in enumerate(proper):
        for T in proper[i + 1:]:
            lhs = plus(values[S & T], values[S | T])
            rhs = plus(values[S], values[T])
            bad = lhs > plus(rhs, tol) if submodular else lhs < minus_tol(rhs)
            if bad:
                return AxiomReport(False, kind, (S, T))
    return AxiomReport(True)


def reference_candidates(order, m: SourceModel, n: int, lam):
    """Every length-n block of ``m`` with its source order changed to
    ``order``, candidate by candidate in plain Python: the simulator's
    candidate space as a test oracle.

    Candidates come in id order: blocks of joint symbols, most significant
    first, each joint symbol a tuple of per-source symbols in row-major
    order.  Returns (symbol tuples per candidate, {source: sequence code
    per candidate}, typical flag per candidate).  Floats follow the
    simulator's order of operations: a subset's marginal adds the joint
    symbols' probabilities in joint-symbol order, and a block's log2
    probability adds its symbols' terms in time order, starting from 0.0.
    """
    perm = [m.sources.index(s) for s in order]
    sizes = tuple(m.alphabet_sizes[k] for k in perm)
    pmf = {tuple(tup[k] for k in perm): p for tup, p in m.pmf.items()}
    aligned = SourceModel(sources=tuple(order), alphabet_sizes=sizes, pmf=pmf)
    joint = list(itertools.product(*map(range, sizes)))
    blocks = [list(block) for block in itertools.product(joint, repeat=n)]
    codes = {}
    for pos, s in enumerate(order):
        codes[s] = []
        for block in blocks:
            code = 0
            for tup in block:
                code = code * sizes[pos] + tup[pos]
            codes[s].append(code)
    typical = [True] * len(blocks)
    for r in range(1, len(order) + 1):
        for kept in itertools.combinations(range(len(order)), r):
            marginal: dict = {}
            for tup in joint:
                key = tuple(tup[k] for k in kept)
                marginal[key] = marginal.get(key, 0.0) + float(pmf.get(tup, 0.0))
            entropy = joint_entropy(aligned, [order[k] for k in kept])
            for j, block in enumerate(blocks):
                logp = 0.0
                for tup in block:
                    p = marginal[tuple(tup[k] for k in kept)]
                    logp += math.log2(p) if p > 0.0 else -math.inf
                typical[j] = typical[j] and abs(-logp / n - entropy) < float(lam)
    return blocks, codes, typical


_MASK64 = (1 << 64) - 1


def reference_codes(space, ids: np.ndarray) -> dict:
    """{source: sequence code of each candidate in ``ids``} of a candidate
    space, by way of an n x len(ids) array of joint symbols, one row per
    time step: the test oracle for ``_CandidateSpace.codes``."""
    digits = np.empty((space.n, len(ids)), dtype=np.int64)
    for k in range(space.n - 1, -1, -1):
        ids, digits[k] = np.divmod(ids, space.joint_size)
    codes = {}
    for (s, a), symbol in zip(space.alphabets.items(), space.symbols):
        codes[s] = np.zeros(digits.shape[1], dtype=np.int64)
        for row in digits:
            codes[s] = codes[s] * a + symbol[row]
    return codes


def reference_bin(x: int, key: int, size: int) -> int:
    """SplitMix64's finaliser of x * golden + key, mod size, in Python ints
    masked to 64 bits: the oracle for the simulator's bin maps."""
    z = (x * 0x9E3779B97F4A7C15 + int(key)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) % size


def reference_encode(code, block: dict) -> dict:
    """One block through the code, one node at a time in Python ints.

    ``block`` maps every source to its sequence code.  A node's input is
    its source block, or the indices on its in-edges read as one
    mixed-radix number; an infinite edge forwards it.  Returns {sink:
    tuple of 0-based received indices, ordered like its in-edges}.
    """
    net = code.net
    value = dict(block)

    def carried(k):
        x = value[net.edges[k].tail]
        return x if k not in code.keys else reference_bin(x, code.keys[k], code.index_sizes[k])

    for node in code.topo_order:
        if node not in value:
            value[node] = 0
            for k in net.in_edges(node):
                value[node] = value[node] * code.index_sizes[k] + carried(k)
    return {t: tuple(carried(k) for k in net.in_edges(t)) for t in net.sinks}


def typical_ids(space) -> np.ndarray:
    """The sorted ids of ``space``'s typical candidates."""
    return np.arange(space.total) if space.ids is None else space.ids


def reference_match(space, received: dict, targets: dict) -> dict:
    """Find the typical candidates each sink receives as its target.

    ``received`` is ``_encode`` of ``space.codes``; ``targets`` maps sinks
    to tuples of 0-based received indices.  Returns {sink: (matches, first
    matching candidate id or -1)}.
    """
    result = {}
    for t, want in targets.items():
        mask = np.ones(space.count, dtype=bool)
        for (_, arr), z in zip(received[t], want):
            mask &= arr == z
        found = typical_ids(space)[mask]
        result[t] = (len(found), int(found[0]) if len(found) else -1)
    return result


def reference_estimate_error(
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
    """The per-trial full re-encode loop: the test oracle for
    ``estimate_error``.

    Every trial builds its code (a fixed code only on trial 0) before it
    draws its block, encodes that block on its own, and encodes the whole
    candidate space, typical or not, to find the typical candidates each
    sink receives identically; a sink errs unless that is exactly the
    transmitted block.
    """
    space = _CandidateSpace(net, m, n, lam)
    every = reference_codes(space, np.arange(space.total, dtype=np.int64))
    typical = np.zeros(space.total, dtype=bool)
    typical[typical_ids(space)] = True
    errors = {t: 0 for t in net.sinks}
    for trial in range(trials):
        if trial == 0 or not fixed_code:
            code = build_code(
                net, space.alphabets, n, tau, delta,
                np.random.SeedSequence(entropy=seed, spawn_key=(trial, 0)),
            )
        truth = space.draw(np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(trial, 1))
        ))
        sent = _encode(code, {s: c[truth:truth + 1] for s, c in every.items()})
        received = _encode(code, every)
        for t, digits in sent.items():
            mask = typical.copy()
            for (_, arr), (_, want) in zip(received[t], digits):
                mask &= arr == int(want[0])
            found = np.flatnonzero(mask)
            if len(found) != 1 or found[0] != truth:
                errors[t] += 1
    return SimResult(
        n=n, tau=Fraction(tau), delta=Fraction(delta), lam=space.lam, trials=trials,
        seed=seed, fixed_code=fixed_code,
        per_sink={t: SinkStats(errors=errors[t], trials=trials) for t in net.sinks},
    )


def reference_solve_feasibility(
    variables: Sequence[str],
    constraints: Sequence[tuple],
) -> Optional[dict]:
    """The dense phase-1 tableau over Fractions: the simplex test oracle.

    One slack, surplus and artificial column per row; Bland's rule by
    column index.  Finds nonnegative variable values satisfying every
    constraint.

    Each constraint reads sum_{v in subset} x_v  <sense>  bound.  Returns
    a dict variable -> Fraction, or None when the system is infeasible.
    Pure phase-1: minimizes the total artificial infeasibility and reads
    off a vertex when it reaches zero.
    """
    var_list = list(variables)
    var_pos = {v: k for k, v in enumerate(var_list)}
    n = len(var_list)

    rows = []
    for subset, sense, bound in constraints:
        if sense not in ("<=", ">="):
            raise ValueError(f"unknown constraint sense {sense!r}")
        coeffs = [Fraction(0)] * n
        for v in subset:
            coeffs[var_pos[v]] += 1
        bound = Fraction(bound)
        if bound < 0:  # normalize to nonnegative right-hand sides
            coeffs = [-c for c in coeffs]
            bound = -bound
            sense = "<=" if sense == ">=" else ">="
        rows.append((coeffs, sense, bound))

    m = len(rows)
    n_le = sum(1 for _, sense, _ in rows if sense == "<=")
    n_ge = m - n_le
    # Columns: original vars, slacks (<=), surpluses (>=), artificials (>=).
    total_cols = n + n_le + n_ge + n_ge
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    slack_at = n
    surplus_at = n + n_le
    artificial_at = n + n_le + n_ge

    le_seen = ge_seen = 0
    for coeffs, sense, bound in rows:
        row = list(coeffs) + [Fraction(0)] * (total_cols - n) + [bound]
        if sense == "<=":
            row[slack_at + le_seen] = Fraction(1)
            basis.append(slack_at + le_seen)
            le_seen += 1
        else:
            row[surplus_at + ge_seen] = Fraction(-1)
            row[artificial_at + ge_seen] = Fraction(1)
            basis.append(artificial_at + ge_seen)
            ge_seen += 1
        tableau.append(row)

    # Objective row: minimize the sum of artificials, reduced by the basis.
    obj = [Fraction(0)] * (total_cols + 1)
    for j in range(artificial_at, total_cols):
        obj[j] = Fraction(1)
    for r, b in enumerate(basis):
        coef = obj[b]
        if coef != 0:
            row = tableau[r]
            for j in range(total_cols + 1):
                obj[j] -= coef * row[j]

    def pivot(row_k: int, col_j: int) -> None:
        piv = tableau[row_k][col_j]
        inv = Fraction(1) / piv
        tableau[row_k] = [x * inv for x in tableau[row_k]]
        prow = tableau[row_k]
        for r in range(m):
            if r != row_k and tableau[r][col_j] != 0:
                factor = tableau[r][col_j]
                tableau[r] = [x - factor * p for x, p in zip(tableau[r], prow)]
        nonlocal obj
        if obj[col_j] != 0:
            factor = obj[col_j]
            obj = [x - factor * p for x, p in zip(obj, prow)]
        basis[row_k] = col_j

    while True:
        # Bland: entering column = lowest index with negative reduced cost.
        entering = None
        for j in range(total_cols):
            if obj[j] < 0:
                entering = j
                break
        if entering is None:
            break
        leaving = None
        best_ratio = None
        for r in range(m):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving is None:
            # Phase-1 objective is bounded below by 0, so this cannot occur.
            raise AssertionError("phase-1 simplex detected an unbounded direction")
        pivot(leaving, entering)

    if -obj[-1] != 0:  # leftover artificial infeasibility
        return None
    solution = {v: Fraction(0) for v in var_list}
    for r, b in enumerate(basis):
        if b < n:
            solution[var_list[b]] = tableau[r][-1]
    return solution


def reference_iis(
    variables: Sequence[str],
    constraints: Sequence[tuple],
) -> list[int]:
    """The deletion filter that solves once per row: the IIS test oracle.

    Indices of an irreducible infeasible subsystem.

    Precondition: the full system is infeasible.  Repeatedly drops any
    constraint whose removal keeps the system infeasible; every constraint
    in the result is necessary for the contradiction.
    """
    if reference_solve_feasibility(variables, constraints) is not None:
        raise ValueError("system is feasible; no infeasible subsystem exists")
    keep = list(range(len(constraints)))
    k = 0
    while k < len(keep):
        trial = keep[:k] + keep[k + 1:]
        if reference_solve_feasibility(variables, [constraints[i] for i in trial]) is None:
            keep = trial
        else:
            k += 1
    return keep


_CRITERION_LINES: list[str] = []


@pytest.fixture
def criterion():
    """Recorder for acceptance-criterion pass/fail lines."""

    def record(number: int, description: str, passed: bool, elapsed: float | None = None):
        status = "PASS" if passed else "FAIL"
        timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
        _CRITERION_LINES.append(f"[criterion {number:2d}] {status}{timing}  {description}")

    return record


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_CRITERION_LINES):
            terminalreporter.write_line(line)
