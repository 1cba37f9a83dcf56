"""Capacity functions of a network: minimum cuts separating source subsets
from sinks.

``rho_t(S)`` is the smallest cut value over bipartitions keeping the
source subset S on one side and sink t on the other; ``rho_n(S)`` is its
minimum over all sinks (the network-wide capacity function).  Max-flow
computes these exactly, on integers scaled from the rational capacities,
so that boundary instances are decided bit-exactly.  One search does all
max-flow work: shortest augmenting paths guided by distance-to-sink
labels (Ahuja & Orlin, Naval Res. Logistics 1991).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graph import Network
from .scalars import INF, integer_ratios, is_inf
from .setfunc import SetFunction, check_source_count


class _Residual:
    """Integer residual graph of a network with a super-source in front of
    ``sources``, searched for shortest augmenting paths.

    Arcs are numbered flat: ``cap[a]`` is the residual capacity of arc
    ``a``, whose paired reverse arc is ``a ^ 1``, and ``arcs[u]`` lists
    the ``(arc, head)`` pairs leaving node ``u``.  Finite capacities are
    integers over their common denominator ``scale``
    (:func:`scalars.integer_ratios`); ``inf`` becomes ``big``, one more
    than the total scaled finite capacity, so a flow value of at least
    ``big`` means every cut is infinite.  ``out[u]`` and ``into[u]`` are
    the scaled capacities of the edges leaving and entering ``u``.  The
    super-source is node ``root``; its arc to ``sources[i]`` is
    ``source_arc[i]``, created with capacity 0 (disabled).

    A search keeps distance-to-sink labels ``d`` beside ``cap``: ``d[sink]
    == 0`` and ``d[u] <= d[v] + 1`` on every arc u -> v with residual
    capacity, so ``d[u]`` is at most u's residual distance to the sink,
    and a label of ``len(d)`` or more proves that u cannot reach it.
    """

    def __init__(self, net: Network, sources):
        index = self.index = {name: k for k, name in enumerate(net.nodes)}
        finite = [e.capacity for e in net.edges if not is_inf(e.capacity)]
        scaled, self.scale = integer_ratios(finite)
        big = self.big = sum(scaled) + 1
        if len(scaled) < len(net.edges):
            finite = iter(scaled)
            scaled = [big if is_inf(e.capacity) else next(finite) for e in net.edges]
        root = self.root = len(net.nodes)
        arcs = self.arcs = [[] for _ in range(root + 1)]
        out = self.out = [0] * (root + 1)
        into = self.into = [0] * (root + 1)
        cap = self.cap = []
        for e, c in zip(net.edges, scaled):
            u, v = index[e.tail], index[e.head]
            out[u] += c
            into[v] += c
            arcs[u].append((len(cap), v))
            arcs[v].append((len(cap) + 1, u))
            cap.append(c)
            cap.append(0)
        self.source_arc = []
        for name in sources:
            v = index[name]
            self.source_arc.append(len(cap))
            arcs[root].append((len(cap), v))
            arcs[v].append((len(cap) + 1, root))
            cap.append(0)
            cap.append(0)

    def label(self, cap: list, sink: int) -> list:
        """Exact labels: the residual distances to ``sink``, by one reverse
        breadth-first search; a node that cannot reach it gets the node
        count."""
        arcs = self.arcs
        n = len(arcs)
        d = [n] * n
        d[sink] = 0
        queue = [sink]
        for v in queue:
            dv = d[v] + 1
            for a, u in arcs[v]:
                if d[u] == n and cap[a ^ 1]:
                    d[u] = dv
                    queue.append(u)
        return d

    def augment(self, cap: list, d: list, sink: int, start: int, value: int, bound: int) -> int:
        """Push flow from ``start`` to ``sink`` until no augmenting path is
        left or the flow value reaches ``bound``; return the value.

        ``cap`` holds the residual capacities of a feasible flow of value
        ``value`` and ``d`` valid labels for them; both are updated in
        place, and the labels stay valid.  A depth-first search follows
        admissible arcs (``cap[a] > 0`` and ``d[u] == d[v] + 1``) from
        ``start``, each node resuming at its current arc, and pushes the
        bottleneck of every path that reaches the sink.  A node with no
        admissible arc left takes one more than the least label over its
        residual arcs, and the search retreats from it.  ``start`` does
        the same the first time it is stuck; stuck again before the next
        push, it gets exact labels from one reverse breadth-first search
        (:meth:`label`).  The flow is maximal once ``start``'s label
        proves that it cannot reach the sink.  Labels never decrease and
        every push follows a shortest path, so the search keeps the
        O(V^2 E) bound of shortest augmenting paths whatever the
        capacities.  ``start == sink`` pushes up to ``bound`` at once.
        """
        n = len(d)
        if value >= bound or d[start] >= n:
            return value
        if start == sink:
            return bound
        arcs = self.arcs
        cur = [0] * n
        path: list[int] = []
        tails: list[int] = []
        u = start
        relabelled = False  # start, since the last push or exact labels
        while True:
            out = arcs[u]
            below = d[u] - 1
            k = cur[u]
            for a, v in out[k:] if k else out:
                if d[v] == below and cap[a]:
                    break
                k += 1
            else:
                if u == start and relabelled:
                    d[:] = self.label(cap, sink)
                    if d[start] >= n:
                        return value
                    relabelled = False
                    cur = [0] * n
                    continue
                low = n
                for a, v in out:
                    if cap[a] and d[v] < low:
                        low = d[v]
                d[u] = low + 1 if low < n else n
                cur[u] = 0
                if u == start:
                    if low >= n:
                        return value
                    relabelled = True
                else:
                    path.pop()
                    u = tails.pop()
                continue
            cur[u] = k
            path.append(a)
            tails.append(u)
            if v != sink:
                u = v
                continue
            delta, back = bound - value, -1
            for j, a in enumerate(path):
                if cap[a] < delta:
                    delta, back = cap[a], j
            for a in path:
                cap[a] -= delta
                cap[a ^ 1] += delta
            value += delta
            if back < 0:
                return value  # at the bound
            # Resume at the tail of the first saturated arc.
            u = tails[back]
            del path[back:], tails[back:]
            relabelled = False


def max_flow(net: Network, source_set: Iterable[str], sink: str):
    """Maximum flow from a set of sources to one sink, with a minimum cut.

    Returns ``(value, member_set)`` where ``member_set`` is the source
    side of a minimum cut (it contains every node of ``source_set`` and
    not ``sink``): the edges leaving it have total capacity ``value``.
    The source set is contracted through a virtual super-source attached
    by infinite-capacity arcs, so node identities survive in the cut.

    Runs :meth:`_Residual.augment` from the super-source on Python ints,
    the capacities scaled as in :class:`_Residual`, then one forward
    breadth-first search.  The member set is the residual-reachable set,
    the inclusion-minimal minimum cut, which does not depend on the
    maximum flow found.
    """
    sources = list(dict.fromkeys(source_set))
    if not sources:
        raise ValueError("source_set must be nonempty")
    for name in sources + [sink]:
        if not net.has_node(name):
            raise ValueError(f"unknown node {name!r}")
    if sink in sources:
        raise ValueError(f"sink {sink!r} is inside the source set")
    residual = _Residual(net, sources)
    root, big, t = residual.root, residual.big, residual.index[sink]
    cap = list(residual.cap)
    for a in residual.source_arc:
        cap[a] = big
    d = residual.label(cap, t)
    value = residual.augment(cap, d, t, root, 0, big)
    if value == big:
        # Every admissible cut is infinite; any member set is a witness.
        return INF, frozenset(net.nodes) - {sink}
    reach = [root]
    seen = {root}
    for u in reach:
        for a, v in residual.arcs[u]:
            if cap[a] and v not in seen:
                seen.add(v)
                reach.append(v)
    members = frozenset(net.nodes[u] for u in reach if u != root)
    return Fraction(value, residual.scale), members


def rho_t(net: Network, subset: Iterable[str], sink: str):
    """Capacity separating the source subset from one sink (min cut value);
    inf when the sink is itself in the subset, as no cut separates them."""
    S = frozenset(subset)
    if not S:
        raise ValueError("source subset must be nonempty")
    if not S <= net.source_set:
        raise ValueError(f"{sorted(S)} is not a subset of the source nodes")
    if sink not in net.sink_set:
        raise ValueError(f"{sink!r} is not a sink node")
    if sink in S:
        return INF
    return max_flow(net, sorted(S, key=net.nodes.index), sink)[0]


def rho_n(net: Network, subset: Iterable[str]):
    """Network-wide capacity function: min over sinks of :func:`rho_t`."""
    S = frozenset(subset)
    return min(rho_t(net, S, t) for t in net.sinks)


@dataclass(frozen=True)
class CapacityProfile:
    """All rho values of a network, over every source subset.

    ``per_sink[t][mask]`` is rho_t of the source subset ``mask`` (bit p is
    ``sources[p]``, index 0 holds 0) and ``network_wide[mask]`` is their
    minimum over sinks, attained first (in sink order) by
    ``binding[mask]``.  Values only: a minimum cut, where one is wanted,
    comes from :func:`max_flow`.
    """

    sources: tuple[str, ...]
    sinks: tuple[str, ...]
    per_sink: dict  # sink -> tuple of values indexed by mask
    network_wide: tuple
    binding: tuple  # sink names indexed by mask

    def rho_t_function(self, sink: str) -> SetFunction:
        return SetFunction(ground=self.sources, values=self.per_sink[sink])

    def rho_n_function(self) -> SetFunction:
        return SetFunction(ground=self.sources, values=self.network_wide)


def capacity_profile(net: Network) -> CapacityProfile:
    """Evaluate rho_t and rho_n for all nonempty source subsets and sinks.

    Subset enumeration is exponential in the number of sources by design;
    raises :class:`LimitError` past ``setfunc.MAX_SOURCES``.

    One integer residual graph (see :class:`_Residual`) is built per
    network, and each sink's walk starts from exact labels.  For each sink
    the subset lattice is walked depth-first, S -> S+{i} with i after
    every source already in S, so each subset is visited once.  Adding a
    source only raises its super-source arc from 0 to infinity, the
    parametric setting (Gallo, Grigoriadis & Tarjan, SIAM J. Comput. 1989)
    where a maximum flow for S stays feasible for S+{i} and its labels
    stay valid.  So a child keeps its parent's flow and labels and pushes
    only the difference, searching from i alone.  That is exact: the set
    reachable from the super-source in the parent's residual graph holds
    S, and no residual arc leaves it, so once the arc to i is enabled
    every augmenting path leaves that set through i.  The walk therefore
    adds no super-source arcs and searches from i in the network's own
    residual graph; an edge into a source of S never leaves the source
    side.  Every child but the last of its parent copies the parent's
    capacities and labels; the last one has no children, and nothing
    reads its parent's lists after it, so it pushes on them.

    A child's push stops at an upper bound on its value, the least of
    three: rho_t(S) + c(out of i), as U + {i} separates S+{i} from t
    whenever U is a minimum cut for S; c(into t), the cut that holds every
    node but t; and rho_t(V) once known.  A source that is the sink makes
    rho_t infinite at once (``augment`` pushes up to the bound), and then
    only the sentinel bounds the values.

    The walk first goes down the chain {0} ⊂ {0, 1} ⊂ ... ⊂ V, so it
    learns rho_t(V) before any other subset.  From then on a subset S
    whose flow value equals rho_t(V) (an infinite value is the sentinel,
    so an infinite S saturates too) runs no augment for its
    remaining children: every subset in their DFS subtrees is a superset
    of S, and rho_t(S) <= rho_t(S') <= rho_t(V) for S ⊆ S', as rho_t is
    monotone, so each takes the value rho_t(V).

    The walk keeps scaled integers.  rho_N and its binding sink are an
    integer min and argmin over them, the first sink in sink order on a
    tie, and each distinct value becomes one Fraction.  Only the flow
    values are kept; a cold :func:`max_flow` on the same subset and a sink
    outside it gives the same value and forms its minimum cut.
    """
    k = len(net.sources)
    check_source_count(k)
    residual = _Residual(net, ())
    big = residual.big
    starts = list(map(residual.index.__getitem__, net.sources))
    full = (1 << k) - 1

    def grow(mask: int, cap: list, d: list, value: int):
        # Children of ``mask`` add one source after its highest member.  The
        # walked sink, its values, ``bounds``, ``top`` and ``limit`` are the
        # loop's below.
        nonlocal top, limit
        for i in range(mask.bit_length(), k):
            if value == top:
                # The subtrees of children i.. are the masks that agree
                # with ``mask`` below bit i and have a bit from i up.
                found[mask + (1 << i)::1 << i] = [top] * ((1 << k - i) - 1)
                return
            child = mask | 1 << i
            last = i + 1 == k
            # The last child has no children, and nothing reads the
            # parent's flow after it, so it pushes on the parent's lists.
            child_cap, child_d = (cap, d) if last else (cap[:], d[:])
            bound = value + bounds[i]
            if bound > limit:
                bound = limit
            child_value = residual.augment(child_cap, child_d, sink, starts[i], value, bound)
            found[child] = child_value
            if child == full:
                top = limit = child_value
            if not last:
                grow(child, child_cap, child_d, child_value)

    scaled = []
    out = list(map(residual.out.__getitem__, starts))
    for t in net.sinks:
        sink, found = residual.index[t], [0] * (full + 1)
        top = -1  # this sink's scaled rho_t(V), once the first chain reaches V
        # No value exceeds the capacity into the sink, nor top once known.
        limit = min(residual.into[sink], big)
        bounds = out
        if sink in starts:
            # A source that is the sink is infinite at once, and so is V.
            limit = big
            bounds = [big if u == sink else c for u, c in zip(starts, out)]
        grow(0, list(residual.cap), residual.label(residual.cap, sink), 0)
        scaled.append(found)
    columns = list(zip(*scaled))
    wide = [min(column) for column in columns]
    sinks = tuple(net.sinks)
    value_of = {v: INF if v == big else Fraction(v, residual.scale) for v in set().union(*scaled)}
    return CapacityProfile(
        sources=tuple(net.sources),
        sinks=sinks,
        per_sink={t: tuple(map(value_of.__getitem__, row)) for t, row in zip(sinks, scaled)},
        network_wide=tuple(map(value_of.__getitem__, wide)),
        binding=tuple([sinks[column.index(v)] for column, v in zip(columns, wide)]),
    )
