"""Max-flow capacity functions against the exhaustive cut-enumeration oracle."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from netmatch import fixtures, mincut
from netmatch.errors import LimitError
from netmatch.graph import Edge, Network, parse_network
from netmatch.mincut import capacity_profile, max_flow, rho_n, rho_t
from netmatch.scalars import INF
from netmatch.setfunc import is_polymatroid

from conftest import (cut_value, enumerate_min_cut, layered_network, random_network,
                      random_raw_network)

DATA = Path(__file__).parent / "data"


def test_butterfly_per_sink_values():
    net = fixtures.butterfly_network()
    expected = {
        ("t1", frozenset({"s2"})): 1,
        ("t2", frozenset({"s1"})): 1,
        ("t1", frozenset({"s1"})): 2,
        ("t2", frozenset({"s2"})): 2,
        ("t1", frozenset({"s1", "s2"})): 2,
        ("t2", frozenset({"s1", "s2"})): 2,
    }
    for (t, S), value in expected.items():
        assert rho_t(net, S, t) == Fraction(value)


def test_butterfly_network_wide_values():
    net = fixtures.butterfly_network()
    assert rho_n(net, {"s1"}) == 1
    assert rho_n(net, {"s2"}) == 1
    assert rho_n(net, {"s1", "s2"}) == 2


def test_single_edge():
    net = Network(("s", "t"), (Edge("s", "t", Fraction(3)),), ("s",), ("t",))
    value, members = max_flow(net, {"s"}, "t")
    assert value == 3
    assert members == frozenset({"s"})


def test_max_flow_matches_enumeration_on_random_dags():
    rng = random.Random(4242)
    for _ in range(50):
        net = random_network(rng)
        for t in net.sinks:
            for S in _nonempty_subsets(net.sources):
                value, members = max_flow(net, S, t)
                oracle_value, _ = enumerate_min_cut(net, S, t)
                assert value == oracle_value
                assert S <= members and t not in members


def _nonempty_subsets(names):
    names = list(names)
    out = []
    for mask in range(1, 1 << len(names)):
        out.append(frozenset(n for k, n in enumerate(names) if mask >> k & 1))
    return out


def _with_infinite_edges(rng: random.Random, net: Network) -> Network:
    edges = list(net.edges)
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(edges))
        edges[k] = edges[k]._replace(capacity=INF)
    return Network(net.nodes, tuple(edges), net.sources, net.sinks)


def test_capacity_profile_matches_cold_flow_and_enumeration():
    # The warm-started lattice walk's values against a cold max_flow per
    # subset and the exhaustive oracle, on networks with zero-capacity edges
    # (drawn by random_network) and, in every other one, infinite edges.
    # max_flow's member set is a minimum cut of that value and, when it is
    # finite, the inclusion-minimal one, which is also the first that the
    # enumeration (by size) finds.
    rng = random.Random(2718)
    for trial in range(60):
        net = random_network(rng, max_nodes=9, max_sources=4, max_sinks=3)
        if trial % 2:
            net = _with_infinite_edges(rng, net)
        profile = capacity_profile(net)
        for t in net.sinks:
            for S in _nonempty_subsets(net.sources):
                rho = profile.rho_t_function(t)(S)
                value, members = max_flow(net, S, t)
                oracle_value, oracle_members = enumerate_min_cut(net, S, t)
                assert value == rho == oracle_value
                assert cut_value(net, members) == rho
                if rho != INF:
                    assert members == oracle_members


def test_flow_cut_duality_is_exact():
    rng = random.Random(5)
    for _ in range(40):
        net = random_network(rng)
        t = net.sinks[-1]
        value, members = max_flow(net, net.sources, t)
        assert cut_value(net, members) == value


def test_subdividing_an_edge_preserves_max_flow():
    rng = random.Random(6)
    for _ in range(25):
        net = random_network(rng, max_nodes=6)
        t = net.sinks[0]
        base, _ = max_flow(net, net.sources, t)
        k = rng.randrange(len(net.edges))
        e = net.edges[k]
        mid = "mid"
        edges = list(net.edges)
        edges[k:k + 1] = [Edge(e.tail, mid, e.capacity), Edge(mid, e.head, e.capacity)]
        position = net.nodes.index(e.head)
        nodes = net.nodes[:position] + (mid,) + net.nodes[position:]
        subdivided = Network(nodes, tuple(edges), net.sources, net.sinks)
        again, _ = max_flow(subdivided, subdivided.sources, t)
        assert again == base


def test_rho_n_is_min_over_sinks_with_equality():
    rng = random.Random(7)
    for _ in range(25):
        net = random_network(rng)
        S = frozenset(net.sources)
        per_sink = [rho_t(net, S, t) for t in net.sinks]
        assert rho_n(net, S) == min(per_sink)
        assert min(per_sink) in per_sink


def test_rho_t_is_polymatroid_on_random_networks():
    rng = random.Random(8)
    for _ in range(25):
        net = random_network(rng)
        profile = capacity_profile(net)
        for t in net.sinks:
            report = is_polymatroid(profile.rho_t_function(t), tol=0)
            assert report.holds, report


def test_capacity_profile_butterfly():
    profile = capacity_profile(fixtures.butterfly_network())
    # Indexed by mask: bit 0 is s1, bit 1 is s2, and the empty set holds 0.
    assert profile.network_wide == (0, 1, 1, 2)
    assert profile.per_sink["t1"] == (0, 2, 1, 2)
    assert profile.binding_sink(0b01) == "t2"


def test_capacity_profile_single_source():
    net = Network(("s", "t"), (Edge("s", "t", Fraction(1, 2)),), ("s",), ("t",))
    profile = capacity_profile(net)
    assert profile.network_wide == (0, Fraction(1, 2))


def test_capacity_profile_subset_bound():
    names = tuple(f"s{k}" for k in range(17)) + ("t",)
    net = Network(
        nodes=names,
        edges=(Edge("s0", "t", Fraction(1)),),
        sources=names[:-1],
        sinks=("t",),
    )
    with pytest.raises(LimitError, match="subset enumeration bound"):
        capacity_profile(net)


def test_argument_validation():
    net = fixtures.butterfly_network()
    with pytest.raises(ValueError, match="inside the source set"):
        max_flow(net, {"s1", "t1"}, "t1")
    with pytest.raises(ValueError, match="nonempty"):
        rho_t(net, set(), "t1")
    with pytest.raises(ValueError, match="not a sink"):
        rho_t(net, {"s1"}, "u")
    with pytest.raises(ValueError, match="not a subset of the source nodes"):
        rho_t(net, {"u"}, "t1")


def test_normalization_edge_never_binds():
    # A source that is also a sink needs no split through an infinite
    # edge: the capacity toward the *other* sink is the plain cut, and
    # toward itself there is no cut, so it is infinite.
    net = Network(
        nodes=("k", "t"),
        edges=(Edge("k", "t", Fraction(2)),),
        sources=("k",),
        sinks=("k", "t"),
    )
    assert rho_t(net, {"k"}, "t") == 2
    assert rho_t(net, {"k"}, "k") == INF
    assert rho_n(net, {"k"}) == 2
    profile = capacity_profile(net)
    assert profile.per_sink == {"k": (0, INF), "t": (0, 2)}


def test_enumerate_min_cut_with_an_infinite_edge_past_the_float_range():
    # Every admissible cut crosses the inf edge a->t, and one also crosses
    # the 10**400 edge; the sum used to overflow converting it to a float.
    net = Network(
        nodes=("a", "b", "t"),
        edges=(Edge("a", "b", Fraction(10**400)), Edge("a", "t", INF), Edge("b", "t", Fraction(1))),
        sources=("a",),
        sinks=("t",),
    )
    assert enumerate_min_cut(net, {"a"}, "t")[0] == INF
    assert max_flow(net, {"a"}, "t")[0] == INF


def test_max_flow_infinite_value():
    net = Network(
        nodes=("s", "m", "t"),
        edges=(Edge("s", "m", INF), Edge("m", "t", INF)),
        sources=("s",),
        sinks=("t",),
    )
    value, members = max_flow(net, {"s"}, "t")
    assert value == INF
    assert cut_value(net, members) == INF


def _count_augments(monkeypatch) -> list:
    calls = [0]
    augment = mincut._Residual.augment

    def counted(self, *args):
        calls[0] += 1
        return augment(self, *args)

    monkeypatch.setattr(mincut._Residual, "augment", counted)
    return calls


def _assert_profile_matches_cold_rho_t(net: Network, profile) -> None:
    # Every (S, t) against a cold flow; rho_N and its binding sink against
    # the min over sinks and the first sink, in sink order, attaining it.
    for mask, S in enumerate(_nonempty_subsets(net.sources), start=1):
        values = [rho_t(net, S, t) for t in net.sinks]
        assert [profile.per_sink[t][mask] for t in net.sinks] == values
        assert profile.network_wide[mask] == min(values)
        assert profile.binding_sink(mask) == net.sinks[values.index(min(values))]


def test_capacity_profile_skips_saturated_subtrees_exactly():
    # Raw networks have sources with in-edges, sources that are also sinks
    # (whose subtrees are infinite) and infinite edges; the normalized
    # ones have up to five sources, and infinite edges in every other one.
    rng = random.Random(2121)
    nets = [random_raw_network(rng) for _ in range(150)]
    for trial in range(40):
        net = random_network(rng, max_nodes=10, max_sources=5, max_sinks=3)
        nets.append(_with_infinite_edges(rng, net) if trial % 2 else net)
    seen_inf = 0
    for net in nets:
        profile = capacity_profile(net)
        _assert_profile_matches_cold_rho_t(net, profile)
        seen_inf += any(INF in values for values in profile.per_sink.values())
    assert seen_inf >= 100


def _star(capacities, relay) -> Network:
    # Sources s0.. feed a relay m, which feeds the one sink t.
    names = tuple(f"s{i}" for i in range(len(capacities)))
    edges = tuple(Edge(s, "m", c) for s, c in zip(names, capacities)) + (Edge("m", "t", relay),)
    return Network(names + ("m", "t"), edges, names, ("t",))


@pytest.mark.parametrize("capacities, relay, augments", [
    # rho_t(V) = 0: the first chain runs, and the root fills the lattice.
    ((Fraction(0),) * 4, Fraction(2), 4),
    # rho_t(V) = inf: every subset holding s0 is infinite.
    ((INF, Fraction(1, 2), Fraction(1, 2)), INF, 6),
    # rho_t({s0}) = rho_t(V) = 2: s0's subtree past the chain is filled.
    ((Fraction(5), Fraction(1), Fraction(1)), Fraction(2), 6),
], ids=["zero", "infinite", "single-source"])
def test_capacity_profile_fills_the_subtrees_of_saturated_subsets(
        monkeypatch, capacities, relay, augments):
    net = _star(capacities, relay)
    calls = _count_augments(monkeypatch)
    profile = capacity_profile(net)
    assert calls[0] == augments
    _assert_profile_matches_cold_rho_t(net, profile)


@pytest.mark.parametrize("name, augments", [("check_k6_pass", 72), ("check_k6_fail", 70)])
def test_capacity_profile_augment_count_is_pinned(monkeypatch, name, augments):
    # A work gate that timing noise cannot move: 3 sinks x 63 subsets, one
    # augment each, would be 189.
    net = parse_network((DATA / f"{name}.network.json").read_text())
    calls = _count_augments(monkeypatch)
    capacity_profile(net)
    assert calls[0] == augments


def test_capacity_profile_at_k14_runs_few_augments(monkeypatch):
    # The seed-1 layered network at k=14 has 3 x 16,383 (S, t) values; the
    # first chain costs 3 x 14 augments, and saturation skips most others.
    net = layered_network(random.Random(1), 14)
    calls = _count_augments(monkeypatch)
    profile = capacity_profile(net)
    assert 3 * 14 <= calls[0] <= 266
    monkeypatch.undo()
    rng = random.Random(14)
    for mask in [1, (1 << 14) - 1] + rng.sample(range(2, (1 << 14) - 1), 30):
        S = {s for p, s in enumerate(net.sources) if mask >> p & 1}
        for t in net.sinks:
            assert profile.per_sink[t][mask] == rho_t(net, S, t)
