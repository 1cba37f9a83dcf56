"""Built-in demo instances: the butterfly network and its two source models.

The butterfly has two sources feeding a shared coding path (merge node
``u``, broadcast node ``w``) plus one direct edge to each sink; with unit
capacities and independent uniform bits the matching condition holds with
equality on every subset.  The second fixture correlates the sources (a
doubly symmetric binary pair) and feeds each sink a full-rate direct
stream plus a per-sink mixer whose cross input is throttled to the binary
entropy of the crossover probability; the network-wide capacity function
is then {h(p), h(p), 2}, the condition holds with slack on the joint
subset, and the singletons stay tight.
"""

from __future__ import annotations

from fractions import Fraction

from .entropy import SourceModel, binary_entropy
from .graph import Edge, Network
from .scalars import admit, snap_to_rational


def butterfly_network() -> Network:
    """Two-source butterfly: all edges capacity 1."""
    return Network(
        nodes=("s1", "s2", "u", "w", "t1", "t2"),
        edges=(
            Edge("s1", "u", 1),
            Edge("s2", "u", 1),
            Edge("u", "w", 1),
            Edge("w", "t1", 1),
            Edge("w", "t2", 1),
            Edge("s1", "t1", 1),
            Edge("s2", "t2", 1),
        ),
        sources=("s1", "s2"),
        sinks=("t1", "t2"),
    )


def uniform_pair_source() -> SourceModel:
    """Independent uniformly distributed bits at the two sources."""
    quarter = Fraction(1, 4)
    return SourceModel(
        sources=("s1", "s2"),
        alphabet_sizes=(2, 2),
        pmf={(a, b): quarter for a in (0, 1) for b in (0, 1)},
    )


def dsbs_source(p) -> SourceModel:
    """Doubly symmetric binary source: uniform X1, X2 = X1 flipped w.p. p."""
    p = Fraction(admit(p, "parameter"))
    if not 0 <= p <= 1:
        raise ValueError(f"crossover probability {p} outside [0, 1]")
    same = (1 - p) / 2
    diff = p / 2
    return SourceModel(
        sources=("s1", "s2"),
        alphabet_sizes=(2, 2),
        pmf={(0, 0): same, (1, 1): same, (0, 1): diff, (1, 0): diff},
    )


def dsbs_network(p) -> Network:
    """Crossed two-mixer network whose broken edges carry h(p) bits/symbol.

    Each sink gets its own source directly plus the output of a mixer
    node; the mixer's cross input (the other source) is throttled to the
    (generally irrational) binary entropy h(p), entered as a rational
    approximation snapped at 1e-12.  Solid edges have capacity 1.  The
    per-sink capacity functions are {2, h, 2} / {h, 2, 2}, so the
    network-wide one is {h, h, 2} for every h in (0, 1].
    """
    h = snap_to_rational(binary_entropy(float(p)))
    return Network(
        nodes=("s1", "s2", "v1", "v2", "t1", "t2"),
        edges=(
            Edge("s1", "t1", 1),
            Edge("s1", "v1", 1),
            Edge("s2", "v1", h),
            Edge("v1", "t1", 1),
            Edge("s2", "t2", 1),
            Edge("s2", "v2", 1),
            Edge("s1", "v2", h),
            Edge("v2", "t2", 1),
        ),
        sources=("s1", "s2"),
        sinks=("t1", "t2"),
    )


def scaled_butterfly(factor) -> Network:
    """Butterfly with every capacity multiplied by ``factor``.

    ``factor=1/2`` gives the standard non-transmissible variant used to
    exercise failing verdicts and the converse side of the simulator.
    """
    factor = Fraction(admit(factor, "parameter"))
    base = butterfly_network()
    return Network(
        nodes=base.nodes,
        edges=tuple(Edge(e.tail, e.head, e.capacity * factor) for e in base.edges),
        sources=base.sources,
        sinks=base.sinks,
    )
