"""The exact phase-1 feasibility engine, against the dense-tableau oracle."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from netmatch import simplex
from netmatch.cli import run
from netmatch.entropy import parse_source_model
from netmatch.graph import parse_network
from netmatch.regions import cutset_polyhedron, prepare_profiles, sw_polyhedron
from netmatch.scalars import snap_to_rational
from netmatch.simplex import point_or_iis

from conftest import reference_iis, reference_solve_feasibility

DATA = Path(__file__).parent / "data"


def assert_matches_reference(variables, constraints):
    """Same verdict and IIS as the dense tableau; a point meets every row."""
    point = point_or_iis(variables, constraints)[0]
    expected = reference_solve_feasibility(variables, constraints)
    assert (point is None) == (expected is None)
    if point is None:
        assert point_or_iis(variables, constraints)[1] == reference_iis(
            variables, constraints)
        return
    assert all(value >= 0 for value in point.values())
    for members, sense, bound in constraints:
        total = sum((point[v] for v in members), Fraction(0))
        assert total <= bound if sense == "<=" else total >= bound


def test_simple_feasible_box():
    point = point_or_iis(
        ("x", "y"),
        [
            (frozenset({"x"}), ">=", Fraction(1)),
            (frozenset({"x"}), "<=", Fraction(2)),
            (frozenset({"y"}), "<=", Fraction(1)),
        ],
    )[0]
    assert point is not None
    assert Fraction(1) <= point["x"] <= Fraction(2)
    assert Fraction(0) <= point["y"] <= Fraction(1)


def test_single_point_region_is_hit_exactly():
    point = point_or_iis(
        ("x", "y"),
        [
            (frozenset({"x"}), ">=", Fraction(1)),
            (frozenset({"y"}), ">=", Fraction(1)),
            (frozenset({"x", "y"}), "<=", Fraction(2)),
        ],
    )[0]
    assert point == {"x": Fraction(1), "y": Fraction(1)}


@pytest.mark.parametrize("variables, constraints, vertex", [
    # x enters first, as the lowest id with a positive objective coefficient.
    (("x", "y"), [(frozenset("xy"), ">=", 1), (frozenset("xy"), "<=", 2)], (1, 0)),
    # The two y >= 1 slacks tie in the ratio test; the lower id leaves.
    (("x", "y", "z"), [(frozenset("x"), "<=", 1), (frozenset("xyz"), ">=", 3),
                       (frozenset("y"), ">=", 1), (frozenset("y"), ">=", 1)], (1, 2, 0)),
])
def test_vertex_rule_follows_bland_by_variable_id(variables, constraints, vertex):
    assert point_or_iis(variables, constraints)[0] == dict(zip(variables, map(Fraction, vertex)))


def test_infeasible_pair():
    constraints = [
        (frozenset({"x"}), ">=", Fraction(2)),
        (frozenset({"x"}), "<=", Fraction(1)),
    ]
    assert point_or_iis(("x",), constraints)[0] is None
    core = point_or_iis(("x",), constraints)[1]
    assert core == [0, 1]


def test_irreducible_core_drops_red_herrings():
    constraints = [
        (frozenset({"y"}), "<=", Fraction(10)),
        (frozenset({"x"}), ">=", Fraction(3)),
        (frozenset({"x", "y"}), "<=", Fraction(2)),
        (frozenset({"y"}), ">=", Fraction(0)),
    ]
    core = point_or_iis(("x", "y"), constraints)[1]
    assert core == [1, 2]
    # Irreducibility: every proper subset of the core is feasible.
    for skip in core:
        rest = [constraints[i] for i in core if i != skip]
        assert point_or_iis(("x", "y"), rest)[0] is not None


def test_zero_bound_and_empty_system():
    assert point_or_iis(("x",), [])[0] == {"x": Fraction(0)}
    point = point_or_iis(("x",), [(frozenset({"x"}), ">=", Fraction(0))])[0]
    assert point == {"x": Fraction(0)}


def test_exact_rational_arithmetic():
    point = point_or_iis(
        ("x", "y"),
        [
            (frozenset({"x", "y"}), ">=", Fraction(1, 3)),
            (frozenset({"x", "y"}), "<=", Fraction(1, 3)),
            (frozenset({"x"}), "<=", Fraction(1, 7)),
        ],
    )[0]
    assert point is not None
    assert point["x"] + point["y"] == Fraction(1, 3)
    assert point["x"] <= Fraction(1, 7)


def test_random_systems_substitution():
    # Bounds are small rationals or floats snapped to the 1e-12 grid the
    # rate-region LPs use; a few are negative.
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(1, 5)
        variables = tuple(f"r{k}" for k in range(n))
        constraints = []
        for _ in range(rng.randint(1, 10)):
            members = frozenset(v for v in variables if rng.random() < 0.6) or frozenset(
                {variables[0]}
            )
            sense = rng.choice(("<=", ">="))
            if rng.random() < 0.5:
                bound = Fraction(rng.randint(-2, 12), rng.choice((1, 2, 3)))
            else:
                bound = snap_to_rational(rng.uniform(0.0, 4.0))
            constraints.append((members, sense, bound))
        assert_matches_reference(variables, constraints)


_bounds = (st.fractions(min_value=-2, max_value=12, max_denominator=3)
           | st.floats(0.0, 4.0).map(snap_to_rational))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(1, 2**n - 1), st.sampled_from(("<=", ">=")), _bounds),
    min_size=1, max_size=10))))
def test_matches_dense_tableau_on_subset_sum_systems(system):
    n, rows = system
    variables = tuple(f"r{k}" for k in range(n))
    constraints = [(frozenset(v for k, v in enumerate(variables) if mask >> k & 1), sense, bound)
                   for mask, sense, bound in rows]
    assert_matches_reference(variables, constraints)


def _pinned_region_lps(name):
    """Every LP `regions` and `regions --separation` solve on a pinned instance."""
    net = parse_network((DATA / f"regions_{name}.network.json").read_text())
    model = parse_source_model((DATA / f"regions_{name}.source.json").read_text())
    analysis = prepare_profiles(net, model)
    cutsets = [cutset_polyhedron(analysis.network, t, analysis.capacity)
               for t in analysis.capacity.sinks]
    sw = sw_polyhedron(analysis.entropy)
    for sets in [[sw, cs] for cs in cutsets] + [[sw, *cutsets]]:
        yield sw.variables, [row for cs in sets for row in cs.constraints]


@pytest.mark.parametrize("name", ["butterfly", "halved", "dsbs", "k4_feasible", "k3_infeasible"])
def test_pinned_region_lps_match_dense_tableau(name):
    for variables, constraints in _pinned_region_lps(name):
        assert_matches_reference(variables, constraints)


@pytest.mark.parametrize("separation, sizes", [
    (False, [14, 12, 6, 14, 7, 1, 14, 7, 1]),
    (True, [28, 21, 8, 1]),
])
def test_regions_solves_only_certificate_support(monkeypatch, capsys, separation, sizes):
    # Row counts of every solve `regions` runs on the k=3 instance whose
    # LPs are all infeasible: each LP is solved in full once, then only
    # rows of the current Farkas certificate (at most k + 1 = 4) cost a
    # solve.  The filter that solved every row made 2 + 14 solves per sink
    # LP and 2 + 28 for the separation LP.
    seen = []
    solve = simplex._solve

    def counted(rows, k):
        seen.append(len(rows))
        return solve(rows, k)

    monkeypatch.setattr(simplex, "_solve", counted)
    argv = ["regions", "--network", str(DATA / "regions_k3_infeasible.network.json"),
            "--source", str(DATA / "regions_k3_infeasible.source.json")]
    assert run(argv + ["--separation"] * separation) == 1
    capsys.readouterr()
    assert seen == sizes


def test_unknown_sense_rejected():
    with pytest.raises(ValueError):
        point_or_iis(("x",), [(frozenset({"x"}), "==", Fraction(1))])[0]
