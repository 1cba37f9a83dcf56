"""Capacitated acyclic networks: representation, parsing and validation.

A network is a finite digraph without self-loops, a nonnegative capacity
(bits per symbol) on every edge, a set of source nodes and a set of sink
nodes.  A source may have incoming edges and may also be a sink: the cut
computations read such a network as given (an edge into a source never
leaves a source side, and a sink inside the source set has no cut, so
its capacity is infinite), and so does the simulator (a source's own
sequence code is one more digit of its input).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import CycleError, DocumentError, load_json
from .scalars import admit, is_inf, parse_scalar
from .setfunc import check_label_names


class Edge(NamedTuple):
    """A directed edge.  ``capacity`` is any number :func:`scalars.admit` takes
    as a capacity; a :class:`Network` stores it as its exact Fraction, or INF."""

    tail: str
    head: str
    capacity: object


@dataclass(frozen=True)
class Network:
    """Immutable capacitated digraph with designated sources and sinks.

    Parallel edges are allowed and kept distinct; their capacities add up
    in every cut.  Construction validates local shape only (endpoints,
    self-loops, capacities); acyclicity is a separate check.  Each capacity
    is admitted by :func:`scalars.admit` and stored as its exact Fraction,
    or INF.  The in- and out-edge index lists of every node are built once.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    sources: tuple[str, ...]
    sinks: tuple[str, ...]
    _node_set: frozenset = field(init=False, repr=False, compare=False)
    _in_edges: dict = field(init=False, repr=False, compare=False)
    _out_edges: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("nodes", "edges", "sources", "sinks"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        node_set = frozenset(self.nodes)
        if len(node_set) != len(self.nodes):
            raise DocumentError("duplicate node identifiers")
        if not self.sources:
            raise DocumentError("at least one source node is required")
        if not self.sinks:
            raise DocumentError("at least one sink node is required")
        for group, names in (("source", self.sources), ("sink", self.sinks)):
            for name in names:
                if name not in node_set:
                    raise DocumentError(f"unknown {group} node {name!r}")
        if len(set(self.sources)) != len(self.sources):
            raise DocumentError("duplicate source node")
        check_label_names(self.sources)
        if len(set(self.sinks)) != len(self.sinks):
            raise DocumentError("duplicate sink node")
        edges = []
        for edge in self.edges:
            if edge.tail not in node_set or edge.head not in node_set:
                raise DocumentError(f"edge ({edge.tail!r}, {edge.head!r}) uses an unknown node")
            if edge.tail == edge.head:
                raise DocumentError(f"self-loop edge at node {edge.tail!r}")
            cap = edge.capacity
            if not (type(cap) is Fraction and cap.numerator >= 0):  # a parsed capacity passes as is
                try:
                    cap = admit(cap, "capacity")
                except ValueError as exc:
                    raise DocumentError(f"{exc} on edge ({edge.tail!r}, {edge.head!r})") from None
                edge = Edge(edge.tail, edge.head, cap if is_inf(cap) else Fraction(cap))
            edges.append(edge)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "_node_set", node_set)
        in_edges = {name: [] for name in self.nodes}
        out_edges = {name: [] for name in self.nodes}
        for k, edge in enumerate(self.edges):
            in_edges[edge.head].append(k)
            out_edges[edge.tail].append(k)
        object.__setattr__(self, "_in_edges", {v: tuple(ks) for v, ks in in_edges.items()})
        object.__setattr__(self, "_out_edges", {v: tuple(ks) for v, ks in out_edges.items()})

    @property
    def source_set(self) -> frozenset:
        return frozenset(self.sources)

    @property
    def sink_set(self) -> frozenset:
        return frozenset(self.sinks)

    def has_node(self, name: str) -> bool:
        return name in self._node_set

    def in_edges(self, node: str) -> tuple[int, ...]:
        """Indices of the edges entering ``node``, in edge order."""
        return self._in_edges[node]

    def out_edges(self, node: str) -> tuple[int, ...]:
        """Indices of the edges leaving ``node``, in edge order."""
        return self._out_edges[node]


def parse_network(text: str) -> Network:
    """Parse a network document (JSON) into a validated Network.

    Document shape::

        {"nodes": ["s1", ...],
         "edges": [{"from": "s1", "to": "u", "capacity": "1"}, ...],
         "sources": ["s1", ...],
         "sinks": ["t1", ...]}

    Capacities are rational strings (``"1"``, ``"3/2"``), integers, or
    ``"inf"``.  Node order is preserved from the input.  A repeated
    (from, to) pair is rejected as a duplicate edge; to model parallel
    capacity in a document, sum it into one edge (cut values add either
    way).
    """
    return network_from_document(load_json(text, "network"))


def network_from_document(doc) -> Network:
    if not isinstance(doc, dict):
        raise DocumentError("network document must be a JSON object")
    for key in ("nodes", "edges", "sources", "sinks"):
        if key not in doc:
            raise DocumentError(f"network document is missing {key!r}")
    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise DocumentError("'nodes' must be a list of strings")
    edges = []
    seen_pairs = set()
    if not isinstance(doc["edges"], list):
        raise DocumentError("'edges' must be a list")
    for entry in doc["edges"]:
        if not isinstance(entry, dict) or not {"from", "to", "capacity"} <= entry.keys():
            raise DocumentError(f"malformed edge entry: {entry!r}")
        tail, head = entry["from"], entry["to"]
        if not (isinstance(tail, str) and isinstance(head, str)):
            raise DocumentError(f"edge endpoints must be node names: {entry!r}")
        if (tail, head) in seen_pairs:
            raise DocumentError(f"duplicate edge ({tail!r}, {head!r})")
        seen_pairs.add((tail, head))
        try:
            cap = parse_scalar(entry["capacity"])
        except ValueError as exc:
            raise DocumentError(f"edge ({tail!r}, {head!r}): {exc}") from exc
        edges.append(Edge(tail, head, cap))
    for key in ("sources", "sinks"):
        if not isinstance(doc[key], list) or not all(isinstance(n, str) for n in doc[key]):
            raise DocumentError(f"'{key}' must be a list of strings")
    return Network(nodes=nodes, edges=edges, sources=doc["sources"], sinks=doc["sinks"])


def validate_acyclic(net: Network) -> tuple[str, ...]:
    """Return a topological order of the nodes, or raise :class:`CycleError`.

    Every edge goes from an earlier to a later node in the returned order;
    ties are broken by input node order, so the result is deterministic.
    This order is also the coding order used by the simulator.
    """
    index = {name: k for k, name in enumerate(net.nodes)}
    indegree = {name: len(net.in_edges(name)) for name in net.nodes}
    heads = [e.head for e in net.edges]

    ready = sorted((name for name, d in indegree.items() if d == 0), key=index.get)
    order: list[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        changed = False
        for k in net.out_edges(node):
            nxt = heads[k]
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
                changed = True
        if changed:
            ready.sort(key=index.get)
    if len(order) == len(net.nodes):
        return tuple(order)

    # Extract one concrete cycle: shrink the unresolved remainder to nodes
    # that still have a successor inside it, then walk until a repeat.
    remaining = {name for name, d in indegree.items() if d > 0}
    while True:
        stuck = {n for n in remaining
                 if not any(heads[k] in remaining for k in net.out_edges(n))}
        if not stuck:
            break
        remaining -= stuck
    node = min(remaining, key=index.get)
    seen: list[str] = []
    while node not in seen:
        seen.append(node)
        node = next(heads[k] for k in net.out_edges(node) if heads[k] in remaining)
    cycle = seen[seen.index(node):]
    raise CycleError(cycle)

