"""The matching-condition check and its diagnostics."""

import dataclasses
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from netmatch import fixtures
from netmatch.entropy import SourceModel, joint_entropy
from netmatch.errors import DocumentError
from netmatch.graph import Edge, Network
from netmatch.mincut import capacity_profile, rho_n
from netmatch.regions import equivalence_check
from netmatch.scalars import is_inf
from netmatch.setfunc import subset_label
from netmatch.transmissibility import check, diagnose

from conftest import random_network, random_source_model, raw_instances


def test_boundary_instance_all_margins_zero():
    report = check(fixtures.butterfly_network(), fixtures.uniform_pair_source())
    assert report.verdict == "boundary"
    assert report.transmissible
    assert [row.label for row in report.rows] == ["s1", "s2", "s1+s2"]
    for row in report.rows:
        assert row.margin == 0.0
        assert row.status == "tight"
    assert [row.binding_sink for row in report.rows] == ["t2", "t1", "t1"]


def test_strict_instance_is_transmissible():
    p = 0.11
    report = check(fixtures.dsbs_network(p), fixtures.dsbs_source(p))
    assert report.verdict == "transmissible"
    statuses = [row.status for row in report.rows]
    assert statuses == ["tight", "tight", "pass"]
    getcontext().prec = 60
    x = Decimal(0.11)
    h = float(-(x * x.ln() + (1 - x) * (1 - x).ln()) / Decimal(2).ln())
    assert report.rows[2].margin == pytest.approx(1 - h, abs=1e-9)


def test_failing_instance():
    report = check(fixtures.scaled_butterfly(Fraction(1, 2)), fixtures.uniform_pair_source())
    assert report.verdict == "not-transmissible"
    assert not report.transmissible
    assert all(row.status == "fail" for row in report.rows)
    assert report.min_margin == pytest.approx(-1.0)  # joint: 1 vs 2


def test_diagnose_boundary_text():
    report = check(fixtures.butterfly_network(), fixtures.uniform_pair_source())
    text = diagnose(report)
    assert "boundary" in text
    assert "tight subset {s1}: binding sink t2" in text
    assert "tight subset {s2}: binding sink t1" in text
    assert "tight subset {s1+s2}" in text


def test_diagnose_passing_text():
    p = 0.25
    report = check(fixtures.dsbs_network(p), fixtures.dsbs_source(p))
    # Widen the tolerance so nothing is tight and the pass branch is taken.
    report = check(fixtures.dsbs_network(p), fixtures.dsbs_source(p), tol=1e-9)
    text = diagnose(report)
    assert "minimum margin" in text


def test_diagnose_suggests_sufficient_capacity_increase():
    # Single bottleneck: the shared coding edge at half capacity.  The
    # suggested increase, applied to the reported cut edges, must restore
    # the verdict.
    base = fixtures.butterfly_network()
    edges = tuple(
        Edge(e.tail, e.head, Fraction(1, 2)) if (e.tail, e.head) == ("u", "w") else e
        for e in base.edges
    )
    net = Network(base.nodes, edges, base.sources, base.sinks)
    m = fixtures.uniform_pair_source()
    report = check(net, m)
    assert report.verdict == "not-transmissible"
    worst = report.worst_row
    delta = Fraction(-snap(worst.margin))
    assert delta == Fraction(1, 2)
    text = diagnose(report)
    assert "add at least 0.5" in text
    fix_pairs = {(e.tail, e.head) for e in report.cut_edges(worst)}
    repaired = Network(
        net.nodes,
        tuple(
            Edge(e.tail, e.head, e.capacity + delta)
            if (e.tail, e.head) in fix_pairs
            else e
            for e in net.edges
        ),
        net.sources,
        net.sinks,
    )
    assert check(repaired, m).verdict != "not-transmissible"


def snap(x: float) -> Fraction:
    return Fraction(x).limit_denominator(10**9)


def test_infinite_capacity_row_passes():
    net = Network(
        nodes=("k", "t"),
        edges=(Edge("k", "t", Fraction(2)),),
        sources=("k",),
        sinks=("k", "t"),
    )
    m = SourceModel(("k",), (2,), {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    report = check(net, m)
    # The split source sees capacity 2 toward t and infinity toward k.
    assert report.rows[0].subset == frozenset({"k"})
    assert report.rows[0].status == "pass"
    assert report.verdict == "transmissible"


def test_source_name_mismatch_rejected():
    m = SourceModel(("x1", "x2"), (2, 2), dict(fixtures.uniform_pair_source().pmf))
    with pytest.raises(DocumentError, match="do not match"):
        check(fixtures.butterfly_network(), m)


def test_verdict_matches_region_statement_on_random_instances():
    rng = random.Random(808)
    for _ in range(60):
        net = random_network(rng)
        m = random_source_model(rng, net.sources, rational=rng.random() < 0.5)
        report = check(net, m)
        regions = equivalence_check(net, m)
        assert report.transmissible == regions.regions_nonempty or (
            abs(report.min_margin) <= report.tolerance
        )


def test_added_capacity_never_decreases_margins():
    rng = random.Random(2718)
    for _ in range(25):
        net = random_network(rng)
        m = random_source_model(rng, net.sources)
        before = check(net, m)
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
        after = check(bumped, m)
        for row_before, row_after in zip(before.rows, after.rows):
            assert row_after.subset == row_before.subset
            assert row_after.margin >= row_before.margin - 1e-12


def test_independent_sources_reduce_to_rate_region_membership():
    # For a product pmf the condition is exactly "the marginal-entropy
    # vector satisfies every cut constraint".
    rng = random.Random(11235)
    for _ in range(20):
        net = random_network(rng, max_sources=2)
        marginals = {}
        pmf = {(): Fraction(1)}
        sizes = []
        for s in net.sources:
            weights = [rng.randint(1, 5) for _ in range(2)]
            total = sum(weights)
            marginals[s] = [Fraction(w, total) for w in weights]
            sizes.append(2)
            pmf = {
                t + (x,): q * marginals[s][x]
                for t, q in pmf.items()
                for x in range(2)
            }
        m = SourceModel(tuple(net.sources), tuple(sizes), pmf)
        report = check(net, m)
        entropies = {s: joint_entropy(m, {s}) for s in net.sources}
        member = True
        for row in report.rows:
            total = sum(entropies[s] for s in row.subset)
            rate_ok = total <= float(rho_n(net, row.subset)) + 1e-9
            member = member and rate_ok
            assert row.sigma == pytest.approx(total, abs=1e-12)
        assert report.transmissible == member


def test_auto_normalization_keeps_model_names():
    net = Network(
        nodes=("k", "t"),
        edges=(Edge("k", "t", Fraction(1)),),
        sources=("k",),
        sinks=("k", "t"),
    )
    m = SourceModel(("k",), (2,), {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    report = check(net, m)
    assert report.rows[0].label == "k"
    assert report.verdict in ("transmissible", "boundary")


def test_check_on_raw_networks_matches_reference_normalization():
    # Sources with in-edges and sources that are sinks, read as given,
    # against the same pair after the reference split: rows, verdict and
    # every cut agree once names are mapped back and the added inf edges
    # dropped.
    failing = inside = into_source = source_sink = 0
    for net, m, ref_net, m_ref, renaming in raw_instances(320, seed=1010):
        into_source += any(e.head in net.source_set for e in net.edges)
        source_sink += bool(net.source_set & net.sink_set)
        back = {new: old for old, new in renaming.items()}
        report, ref = check(net, m), check(ref_net, m_ref)
        added = set(ref_net.edges[len(net.edges):])
        assert report.verdict == ref.verdict
        assert report.sources == tuple(back[s] for s in ref.sources)
        assert report.sinks == ref.sinks
        failing += report.verdict == "not-transmissible"
        assert len(report.rows) == len(ref.rows)
        for row, ref_row in zip(report.rows, ref.rows):
            subset = frozenset(back[s] for s in ref_row.subset)
            assert row == dataclasses.replace(ref_row, subset=subset,
                                              label=subset_label(subset, net.sources))
            if row.binding_sink in row.subset:
                inside += 1
                assert is_inf(row.rho)
                with pytest.raises(ValueError, match="inside the source set"):
                    report.cut_edges(row)
            else:
                expected = tuple(e for e in ref.cut_edges(ref_row) if e not in added)
                assert report.cut_edges(row) == expected
    assert into_source > 200 and source_sink > 200
    assert failing > 200 and inside > 200
