"""Rate-region polyhedra, LP feasibility, and the two equivalence checks."""

import random
from fractions import Fraction

import pytest

from netmatch import fixtures
from netmatch.entropy import SourceModel, entropy_profile
from netmatch.graph import Edge, Network
from netmatch.mincut import capacity_profile
from netmatch.regions import (
    ConstraintSet,
    cutset_polyhedron,
    feasible,
    prepare_profiles,
    separation_check,
    sw_polyhedron,
    equivalence_check,
)
from netmatch.scalars import snap_to_rational

from conftest import random_network, random_source_model, raw_instances


def constraint_map(cs: ConstraintSet) -> dict:
    return {(S, sense): bound for S, sense, bound in cs.constraints}


def test_cutset_polyhedron_butterfly_t1():
    net = fixtures.butterfly_network()
    profile = capacity_profile(net)
    cs = cutset_polyhedron(net, "t1", profile)
    got = constraint_map(cs)
    assert got == {
        (frozenset({"s1"}), "<="): Fraction(2),
        (frozenset({"s2"}), "<="): Fraction(1),
        (frozenset({"s1", "s2"}), "<="): Fraction(2),
    }


def test_cutset_polyhedron_single_source():
    net = Network(("s", "t"), (Edge("s", "t", Fraction(3, 2)),), ("s",), ("t",))
    cs = cutset_polyhedron(net, "t", capacity_profile(net))
    assert constraint_map(cs) == {(frozenset({"s"}), "<="): Fraction(3, 2)}


def test_cutset_polyhedron_dsbs_t1():
    p = 0.11
    net = fixtures.dsbs_network(p)
    profile = capacity_profile(net)
    got = constraint_map(cutset_polyhedron(net, "t1", profile))
    h = net.edges[2].capacity  # the throttled cross edge carries h(p)
    assert got[(frozenset({"s2"}), "<=")] == h
    assert got[(frozenset({"s1", "s2"}), "<=")] == Fraction(2)


def test_cutset_polyhedron_omits_infinite_bounds():
    net = Network(
        nodes=("s", "t"),
        edges=(Edge("s", "t", float("inf")),),
        sources=("s",),
        sinks=("t",),
    )
    cs = cutset_polyhedron(net, "t", capacity_profile(net))
    assert cs.constraints == ()


def test_sw_polyhedron_uniform_pair():
    ep = entropy_profile(fixtures.uniform_pair_source())
    got = constraint_map(sw_polyhedron(ep))
    assert got == {
        (frozenset({"s1"}), ">="): Fraction(1),
        (frozenset({"s2"}), ">="): Fraction(1),
        (frozenset({"s1", "s2"}), ">="): Fraction(2),
    }


def test_sw_polyhedron_deterministic_source():
    from netmatch.entropy import SourceModel

    m = SourceModel(("a", "b"), (2, 2), {(0, 0): Fraction(1)})
    got = constraint_map(sw_polyhedron(entropy_profile(m)))
    assert all(bound == 0 for bound in got.values())


def test_sw_polyhedron_dsbs():
    p = 0.11
    ep = entropy_profile(fixtures.dsbs_source(p))
    got = constraint_map(sw_polyhedron(ep))
    h = snap_to_rational(ep.sigma(frozenset({"s1"})))
    assert got[(frozenset({"s1"}), ">=")] == h
    assert got[(frozenset({"s1", "s2"}), ">=")] == snap_to_rational(
        ep.sigma(frozenset({"s1", "s2"}))
    )


def test_feasible_boundary_intersection_is_single_point():
    net = fixtures.butterfly_network()
    profile = capacity_profile(net)
    ep = entropy_profile(fixtures.uniform_pair_source())
    result = feasible([sw_polyhedron(ep), cutset_polyhedron(net, "t1", profile)])
    assert result.point is not None
    assert result.point.rates == {"s1": Fraction(1), "s2": Fraction(1)}


def test_feasible_contradiction_witness():
    variables = ("s1", "s2")
    a = ConstraintSet("lower", variables, ((frozenset({"s1"}), ">=", Fraction(2)),))
    b = ConstraintSet("upper", variables, ((frozenset({"s1"}), "<=", Fraction(1)),))
    result = feasible([a, b])
    assert result.point is None
    names = sorted(entry[0] for entry in result.witness.constraints)
    assert names == ["lower", "upper"]


def test_feasible_variable_order_mismatch():
    a = ConstraintSet("a", ("x", "y"), ())
    b = ConstraintSet("b", ("y", "x"), ())
    with pytest.raises(ValueError, match="variable order"):
        feasible([a, b])


def test_feasible_random_boxes_substitution():
    rng = random.Random(77)
    for _ in range(25):
        variables = tuple(f"r{k}" for k in range(rng.randint(1, 3)))
        lows = {v: Fraction(rng.randint(0, 4)) for v in variables}
        highs = {v: lows[v] + rng.randint(0, 3) for v in variables}
        rows = []
        for v in variables:
            rows.append((frozenset({v}), ">=", lows[v]))
            rows.append((frozenset({v}), "<=", highs[v]))
        result = feasible([ConstraintSet("box", variables, tuple(rows))])
        assert result.point is not None
        for v in variables:
            assert lows[v] <= result.point.rates[v] <= highs[v]


def test_equivalence_boundary_instance():
    report = equivalence_check(fixtures.butterfly_network(), fixtures.uniform_pair_source())
    assert report.condition_holds
    assert report.regions_nonempty
    assert report.agreement == "boundary"
    assert report.min_margin == 0.0
    for result in report.per_sink.values():
        assert result.point.rates == {"s1": Fraction(1), "s2": Fraction(1)}


def test_equivalence_strict_instance():
    p = 0.11
    report = equivalence_check(fixtures.dsbs_network(p), fixtures.dsbs_source(p))
    assert report.condition_holds
    assert report.regions_nonempty


def test_equivalence_failing_instance():
    # Choke the shared coding edge: the joint subset loses half a bit.
    base = fixtures.butterfly_network()
    edges = tuple(
        Edge(e.tail, e.head, Fraction(1, 2)) if (e.tail, e.head) == ("u", "w") else e
        for e in base.edges
    )
    net = Network(base.nodes, edges, base.sources, base.sinks)
    report = equivalence_check(net, fixtures.uniform_pair_source())
    assert not report.condition_holds
    assert not report.regions_nonempty
    assert report.agreement == "agree"
    assert report.min_margin == pytest.approx(-0.5)
    # The joint subset violates: its capacity dropped to 3/2 against H = 2
    # (the singletons happen to violate by the same amount here).
    profile = capacity_profile(net)
    assert profile.rho_n_function()({"s1", "s2"}) == Fraction(3, 2)


def test_equivalence_agreement_on_random_instances():
    rng = random.Random(555)
    for _ in range(100):
        net = random_network(rng)
        m = random_source_model(rng, net.sources, rational=rng.random() < 0.5)
        report = equivalence_check(net, m)
        assert report.agreement in ("agree", "boundary"), (net, m)


def test_separation_boundary_instance():
    report = separation_check(fixtures.butterfly_network(), fixtures.uniform_pair_source())
    assert report.separable
    assert report.witness.rates == {"s1": Fraction(1), "s2": Fraction(1)}
    assert report.rho_n_polymatroid.holds


def test_separation_fails_for_correlated_instance():
    p = 0.11
    net = fixtures.dsbs_network(p)
    report = separation_check(net, fixtures.dsbs_source(p))
    assert not report.separable
    assert not report.rho_n_polymatroid.holds
    # The contradiction: both singletons capped at h while the pair needs 1+h.
    entries = {(name, S, sense) for name, S, sense, _ in report.infeasibility.constraints}
    assert ("cut[t1]", frozenset({"s2"}), "<=") in entries
    assert ("cut[t2]", frozenset({"s1"}), "<=") in entries
    assert ("slepian-wolf", frozenset({"s1", "s2"}), ">=") in entries
    bounds = {(name, S): b for name, S, _, b in report.infeasibility.constraints}
    h1 = bounds[("cut[t1]", frozenset({"s2"}))]
    h2 = bounds[("cut[t2]", frozenset({"s1"}))]
    joint = bounds[("slepian-wolf", frozenset({"s1", "s2"}))]
    assert h1 + h2 < joint


def test_separation_single_sink_follows_condition():
    rng = random.Random(31337)
    seen_pass = False
    for _ in range(40):
        net = random_network(rng, max_sinks=1)
        m = random_source_model(rng, net.sources)
        t2 = equivalence_check(net, m)
        sep = separation_check(net, m)
        assert sep.rho_n_polymatroid.holds  # single sink: rho_N = rho_t
        assert sep.separable == t2.condition_holds
        seen_pass = seen_pass or sep.separable
    assert seen_pass


def test_separation_implies_per_sink_feasibility():
    rng = random.Random(99)
    for _ in range(40):
        net = random_network(rng)
        m = random_source_model(rng, net.sources)
        sep = separation_check(net, m)
        if sep.separable:
            report = equivalence_check(net, m)
            assert report.regions_nonempty


def test_added_capacity_never_breaks_separation():
    rng = random.Random(123)
    checked = 0
    while checked < 15:
        net = random_network(rng)
        m = random_source_model(rng, net.sources)
        if not separation_check(net, m).separable:
            continue
        checked += 1
        k = rng.randrange(len(net.edges))
        bumped = Network(
            net.nodes,
            tuple(
                Edge(e.tail, e.head, e.capacity + 2) if i == k else e
                for i, e in enumerate(net.edges)
            ),
            net.sources,
            net.sinks,
        )
        assert separation_check(bumped, m).separable


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize("checker", [equivalence_check])
def test_invalid_tolerance_rejected(checker, tol):
    net = fixtures.butterfly_network()
    with pytest.raises(ValueError, match="tolerance"):
        checker(net, fixtures.uniform_pair_source(), tol)


def test_model_source_order_does_not_change_the_analysis():
    # A model listing the sources in another order is re-keyed to the
    # network's order, so the SW rows and both checks see the same data.
    rng = random.Random(515)
    for _ in range(20):
        net = random_network(rng)
        m = random_source_model(rng, net.sources)
        rev = SourceModel(sources=m.sources[::-1], alphabet_sizes=m.alphabet_sizes[::-1],
                          pmf={t[::-1]: p for t, p in m.pmf.items()})
        a, b = prepare_profiles(net, m), prepare_profiles(net, rev)
        assert b.entropy.sigma.ground == b.entropy.joint.ground == net.sources
        # Bit-identical entropies, and whole SW rows, bounds included.
        assert b.entropy.sigma.values == a.entropy.sigma.values
        assert b.entropy.joint.values == a.entropy.joint.values
        assert sw_polyhedron(b.entropy) == sw_polyhedron(a.entropy)
        assert (equivalence_check(net, rev).condition_holds
                == equivalence_check(net, m).condition_holds)


def test_regions_on_raw_networks_match_reference_normalization():
    # The same raw pairs as the check test: both region checks agree with
    # the reference split in verdicts, rate points and irreducible
    # infeasible subsystems, once names are mapped back.
    infeasible = 0
    for net, m, ref_net, m_ref, renaming in raw_instances(320, seed=1010):
        back = {new: old for old, new in renaming.items()}

        def names(subset):
            return frozenset(back[s] for s in subset)

        def same(point, witness, ref_point, ref_witness):
            if ref_point is not None:
                assert point.rates == {back[s]: v for s, v in ref_point.rates.items()}
            else:
                assert point is None
                assert witness.constraints == tuple(
                    (name, names(S), sense, bound)
                    for name, S, sense, bound in ref_witness.constraints)

        eq, ref_eq = equivalence_check(net, m), equivalence_check(ref_net, m_ref)
        assert eq.sources == tuple(back[s] for s in ref_eq.sources)
        assert (eq.condition_holds, eq.min_margin, eq.regions_nonempty, eq.agreement) == (
            ref_eq.condition_holds, ref_eq.min_margin, ref_eq.regions_nonempty, ref_eq.agreement)
        assert eq.worst_subset == names(ref_eq.worst_subset)
        assert eq.per_sink.keys() == ref_eq.per_sink.keys()
        for t in eq.per_sink:
            result, ref_result = eq.per_sink[t], ref_eq.per_sink[t]
            same(result.point, result.witness, ref_result.point, ref_result.witness)

        sep, ref_sep = separation_check(net, m), separation_check(ref_net, m_ref)
        assert sep.separable == ref_sep.separable
        same(sep.witness, sep.infeasibility, ref_sep.witness, ref_sep.infeasibility)
        axioms, ref_axioms = sep.rho_n_polymatroid, ref_sep.rho_n_polymatroid
        assert (axioms.holds, axioms.axiom) == (ref_axioms.holds, ref_axioms.axiom)
        assert axioms.witness == (tuple(map(names, ref_axioms.witness))
                                  if ref_axioms.witness else ref_axioms.witness)
        infeasible += not sep.separable
    assert infeasible > 100
