"""Capacity functions of a network: minimum cuts separating source subsets
from sinks.

``rho_t(S)`` is the smallest cut value over bipartitions keeping the
source subset S on one side and sink t on the other; ``rho_n(S)`` is its
minimum over all sinks (the network-wide capacity function).  Max-flow
computes these exactly, on integers scaled from the rational capacities,
so that boundary instances are decided bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graph import Network
from .scalars import INF, is_inf
from .setfunc import SetFunction, check_source_count


class _Residual:
    """Integer residual graph of a network with a super-source in front of
    ``sources``.

    Arcs are stored flat: ``to[a]`` and ``cap[a]`` for arc ``a``, whose
    paired reverse arc is ``a ^ 1``.  Finite capacities are scaled by the
    LCM of their denominators; ``inf`` becomes ``big``, one more than the
    total scaled finite capacity, so a flow value of at least ``big``
    means every cut is infinite.  The super-source arc of ``sources[i]``
    is ``source_arc[i]``, created with capacity 0 (disabled).
    """

    def __init__(self, net: Network, sources):
        self.index = {name: k for k, name in enumerate(net.nodes)}
        finite = [e.capacity for e in net.edges if not is_inf(e.capacity)]
        self.scale = math.lcm(*(c.denominator for c in finite))
        scaled = [c.numerator * (self.scale // c.denominator) for c in finite]
        self.big = sum(scaled) + 1
        self.root = len(net.nodes)
        self.adj: list[list[int]] = [[] for _ in range(self.root + 1)]
        self.to: list[int] = []
        self.cap: list[int] = []
        caps = iter(scaled)
        for e in net.edges:
            cap = self.big if is_inf(e.capacity) else next(caps)
            self._add_arc(self.index[e.tail], self.index[e.head], cap)
        self.source_arc = [self._add_arc(self.root, self.index[s], 0) for s in sources]

    def _add_arc(self, u: int, v: int, cap: int) -> int:
        a = len(self.to)
        self.adj[u].append(a)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(a + 1)
        self.to.append(u)
        self.cap.append(0)
        return a

    def augment(self, cap: list, sink: int, value: int):
        """Edmonds-Karp from the feasible flow held in ``cap`` (residual
        capacities, updated in place) whose value is ``value``.

        Returns ``(value, reach)``: the maximum flow value and the node
        indices reachable from the super-source in the final residual
        graph, or ``reach = None`` once ``value >= big`` (infinite).
        """
        to, adj, root, big = self.to, self.adj, self.root, self.big
        n = root + 1
        while value < big:
            parent = [-1] * n
            parent[root] = -2
            queue = [root]
            for u in queue:
                for a in adj[u]:
                    v = to[a]
                    if parent[v] == -1 and cap[a] > 0:
                        parent[v] = a
                        queue.append(v)
                if parent[sink] != -1:
                    break
            else:
                return value, queue
            bottleneck = big
            v = sink
            while v != root:
                a = parent[v]
                if cap[a] < bottleneck:
                    bottleneck = cap[a]
                v = to[a ^ 1]
            v = sink
            while v != root:
                a = parent[v]
                cap[a] -= bottleneck
                cap[a ^ 1] += bottleneck
                v = to[a ^ 1]
            value += bottleneck
        return value, None


def max_flow(net: Network, source_set: Iterable[str], sink: str):
    """Maximum flow from a set of sources to one sink, with a minimum cut.

    Returns ``(value, member_set)`` where ``member_set`` is the source
    side of a minimum cut (it contains every node of ``source_set`` and
    not ``sink``): the edges leaving it have total capacity ``value``.
    The source set is contracted through a virtual super-source attached
    by infinite-capacity arcs, so node identities survive in the cut.

    Runs Edmonds-Karp on Python ints: finite capacities are scaled by the
    LCM of their denominators and ``inf`` by a sentinel above their total
    (see :class:`_Residual`).  The member set is the residual-reachable
    set, the inclusion-minimal minimum cut, which does not depend on the
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
    cap = list(residual.cap)
    for a in residual.source_arc:
        cap[a] = residual.big
    value, reach = residual.augment(cap, residual.index[sink], 0)
    if reach is None:
        # Every admissible cut is infinite; any member set is a witness.
        return INF, frozenset(net.nodes) - {sink}
    members = frozenset(net.nodes[u] for u in reach if u != residual.root)
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

    def binding_sink(self, mask: int) -> str:
        """First sink (in sink order) attaining the network-wide minimum on
        ``mask``: the integer argmin that :func:`capacity_profile` took."""
        return self.binding[mask]


def capacity_profile(net: Network) -> CapacityProfile:
    """Evaluate rho_t and rho_n for all nonempty source subsets and sinks.

    Subset enumeration is exponential in the number of sources by design;
    raises :class:`LimitError` past ``setfunc.MAX_SOURCES``.

    One integer residual graph (see :func:`max_flow`) is built per network.
    For each sink the subset lattice is walked depth-first, S -> S+{i}
    with i after every source already in S, so each subset is visited
    once.  Enabling source i's super-source arc keeps the parent's flow
    feasible, so a child only augments the difference.  A sink inside S
    is reached by its own super-source arc, so rho_t(S) is infinite; an
    edge into a source of S never leaves the source side.  Each DFS level
    holds one copy of the residual capacities.

    The walk first goes down the chain {0} ⊂ {0, 1} ⊂ ... ⊂ V, so it
    learns rho_t(V) before any other subset.  From then on a subset S
    whose flow value equals rho_t(V) (with infinite values clamped to the
    sentinel, so an infinite S saturates too) runs no augment for its
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
    residual = _Residual(net, net.sources)
    big, source_arc = residual.big, residual.source_arc
    full = (1 << k) - 1
    levels = [list(residual.cap) for _ in range(k)]

    def grow(mask: int, cap: list, value: int, depth: int):
        # Children of ``mask`` add one source after its highest member;
        # ``levels[depth]`` holds their residual capacities in turn.  The
        # walked sink, its values and its ``top`` are the loop's below.
        nonlocal top
        for i in range(mask.bit_length(), k):
            if value == top:
                # The subtrees of children i.. are the masks that agree
                # with ``mask`` below bit i and have a bit from i up.
                found[mask + (1 << i)::1 << i] = [top] * ((1 << k - i) - 1)
                return
            child = mask | 1 << i
            child_cap = levels[depth]
            child_cap[:] = cap
            child_cap[source_arc[i]] = big
            child_value = min(residual.augment(child_cap, sink, value)[0], big)
            found[child] = child_value
            if child == full:
                top = child_value
            grow(child, child_cap, child_value, depth + 1)

    scaled = []
    for t in net.sinks:
        sink, found = residual.index[t], [0] * (full + 1)
        top = -1  # this sink's scaled rho_t(V), once the first chain reaches V
        grow(0, residual.cap, 0, 0)
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
