"""Network parsing, validation, and raw cut values."""

import json
import random
from fractions import Fraction

import pytest

from netmatch import fixtures
from netmatch.errors import CycleError, DocumentError
from netmatch.graph import Edge, Network, is_normalized, parse_network, validate_acyclic
from netmatch.mincut import capacity_profile
from netmatch.scalars import INF

from conftest import (cut_value, enumerate_min_cut, network_to_document, random_network,
                      random_raw_network, reference_normalize, subset_values)


BUTTERFLY_DOC = json.dumps(network_to_document(fixtures.butterfly_network()))


def test_parse_butterfly():
    net = parse_network(BUTTERFLY_DOC)
    assert len(net.nodes) == 6
    assert len(net.edges) == 7
    assert net.sources == ("s1", "s2")
    assert net.sinks == ("t1", "t2")
    assert all(e.capacity == 1 for e in net.edges)


def test_parse_single_edge():
    doc = {
        "nodes": ["s", "t"],
        "edges": [{"from": "s", "to": "t", "capacity": 3}],
        "sources": ["s"],
        "sinks": ["t"],
    }
    net = parse_network(json.dumps(doc))
    assert len(net.edges) == 1
    assert net.edges[0].capacity == Fraction(3)


def test_parse_rational_and_inf_capacities():
    doc = {
        "nodes": ["a", "b", "c"],
        "edges": [
            {"from": "a", "to": "b", "capacity": "3/2"},
            {"from": "b", "to": "c", "capacity": "inf"},
        ],
        "sources": ["a"],
        "sinks": ["c"],
    }
    net = parse_network(json.dumps(doc))
    assert net.edges[0].capacity == Fraction(3, 2)
    assert net.edges[1].capacity == INF


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["edges"].append({"from": "a", "to": "a", "capacity": 1}), "self-loop"),
        (lambda d: d["edges"].append({"from": "a", "to": "zz", "capacity": 1}), "unknown"),
        (lambda d: d["edges"].__setitem__(
            0, {"from": "a", "to": "b", "capacity": "-1"}), "negative"),
        (lambda d: d["edges"].append(dict(d["edges"][0])), "duplicate"),
        (lambda d: d.pop("sinks"), "missing"),
        (lambda d: d["edges"].__setitem__(
            0, {"from": "a", "to": "b", "capacity": 0.5}), "not exact"),
    ],
)
def test_parse_semantic_errors(mutate, message):
    doc = {
        "nodes": ["a", "b"],
        "edges": [{"from": "a", "to": "b", "capacity": 1}],
        "sources": ["a"],
        "sinks": ["b"],
    }
    mutate(doc)
    with pytest.raises(DocumentError, match=message):
        parse_network(json.dumps(doc))


def test_parse_syntax_error():
    with pytest.raises(DocumentError, match="JSON"):
        parse_network("{nodes: oops")


def test_topological_order_butterfly():
    net = fixtures.butterfly_network()
    order = validate_acyclic(net)
    position = {v: k for k, v in enumerate(order)}
    for e in net.edges:
        assert position[e.tail] < position[e.head]
    assert set(order[:2]) == {"s1", "s2"}
    assert set(order[-2:]) == {"t1", "t2"}


def test_topological_order_single_node():
    net = Network(("a", "z"), (Edge("a", "z", Fraction(1)),), ("a",), ("z",))
    assert validate_acyclic(net) == ("a", "z")


def test_cycle_error_lists_cycle():
    net = Network(
        nodes=("s", "a", "b", "c", "t"),
        edges=(
            Edge("s", "a", Fraction(1)),
            Edge("a", "b", Fraction(1)),
            Edge("b", "c", Fraction(1)),
            Edge("c", "a", Fraction(1)),
            Edge("c", "t", Fraction(1)),
        ),
        sources=("s",),
        sinks=("t",),
    )
    with pytest.raises(CycleError) as info:
        validate_acyclic(net)
    assert sorted(info.value.cycle) == ["a", "b", "c"]


def test_normalize_preserves_capacity_functions():
    # The walk reads a source with in-edges, or a source that is a sink, as
    # given: rho_t(S) is the exhaustive min cut when t is outside S and inf
    # when t is inside, and splitting the sources as the reference
    # normalization does leaves every value where it was.
    rng = random.Random(7)
    seen_inside = 0
    for _ in range(40):
        net = random_raw_network(rng)
        ref, renaming = reference_normalize(net)
        profile = capacity_profile(net)
        for t in net.sinks:
            for S, value in subset_values(profile.rho_t_function(t)).items():
                expected = enumerate_min_cut(ref, frozenset(renaming[s] for s in S), t)[0]
                assert value == expected
                if t in S:
                    seen_inside += 1
                    assert value == INF
                else:
                    assert value == enumerate_min_cut(net, S, t)[0]
    assert seen_inside > 10


def test_is_normalized():
    assert is_normalized(fixtures.butterfly_network())
    source_is_sink = Network(("k", "t"), (Edge("k", "t", Fraction(2)),), ("k",), ("k", "t"))
    assert not is_normalized(source_is_sink)
    edge_into_source = Network(("a", "s", "t"),
                               (Edge("a", "s", Fraction(1)), Edge("s", "t", Fraction(1))),
                               ("s",), ("t",))
    assert not is_normalized(edge_into_source)


@pytest.mark.parametrize("first", ["huge", "inf"])
def test_cut_value_with_an_infinite_edge_past_the_float_range(first):
    # Fraction + float converts the Fraction to a float, which overflows
    # for 10**400; the sum is inf as soon as one crossing edge is.
    edges = [Edge("a", "b", Fraction(10**400)), Edge("a", "t", INF)]
    if first == "inf":
        edges.reverse()
    net = Network(("a", "b", "t"), tuple(edges), ("a",), ("t",))
    assert cut_value(net, {"a"}) == INF
    assert cut_value(net, {"a", "b"}) == INF
    assert cut_value(net, {"a", "t"}) == Fraction(10**400)


def test_cut_value_butterfly_source_pair():
    net = fixtures.butterfly_network()
    # Independent oracle: sum the crossing unit edges by hand.
    crossing = [e for e in net.edges if e.tail in {"s1", "s2"} and e.head not in {"s1", "s2"}]
    assert cut_value(net, {"s1", "s2"}) == Fraction(len(crossing)) == Fraction(4)


def test_cut_value_trivial_sets():
    net = fixtures.butterfly_network()
    assert cut_value(net, set(net.nodes)) == 0
    assert cut_value(net, set()) == 0


def test_cut_value_unknown_node():
    with pytest.raises(DocumentError, match="unknown node"):
        cut_value(fixtures.butterfly_network(), {"nope"})


def test_cut_value_monotone_in_crossing_capacity():
    rng = random.Random(99)
    for _ in range(20):
        net = random_network(rng, max_nodes=6)
        members = {v for v in net.nodes if rng.random() < 0.5}
        base = cut_value(net, members)
        k = rng.randrange(len(net.edges))
        bumped = Network(
            net.nodes,
            tuple(
                Edge(e.tail, e.head, e.capacity + 1) if i == k else e
                for i, e in enumerate(net.edges)
            ),
            net.sources,
            net.sinks,
        )
        edge = net.edges[k]
        crossing = edge.tail in members and edge.head not in members
        expected = base + 1 if crossing else base
        assert cut_value(bumped, members) == expected


def test_parallel_edges_add_in_cuts():
    net = Network(
        nodes=("s", "t"),
        edges=(Edge("s", "t", Fraction(1)), Edge("s", "t", Fraction(3, 2))),
        sources=("s",),
        sinks=("t",),
    )
    assert cut_value(net, {"s"}) == Fraction(5, 2)


def test_infinite_cut_value():
    net = Network(
        nodes=("s", "t"),
        edges=(Edge("s", "t", INF),),
        sources=("s",),
        sinks=("t",),
    )
    assert cut_value(net, {"s"}) == INF
