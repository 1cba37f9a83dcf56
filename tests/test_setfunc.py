"""Polymatroid axioms, violation witnesses, and the sandwich feasibility test."""

import json
import math
import random
from fractions import Fraction

import pytest

from netmatch import fixtures
from netmatch.entropy import entropy_profile
from netmatch.errors import DocumentError
from netmatch.mincut import capacity_profile
from netmatch.setfunc import (
    SetFunction,
    is_copolymatroid,
    is_polymatroid,
    iter_nonempty_subsets,
    parse_setfunction,
    sandwich_feasible,
    setfunction_to_document,
    subset_label,
)
from netmatch import simplex

from conftest import random_network, random_source_model


def sf(ground, *values):
    subsets = iter_nonempty_subsets(tuple(ground))
    return SetFunction(ground=tuple(ground), values=dict(zip(subsets, map(Fraction, values))))


def test_subset_order_is_size_then_position():
    subsets = iter_nonempty_subsets(("a", "b", "c"))
    labels = [subset_label(S, ("a", "b", "c")) for S in subsets]
    assert labels == ["a", "b", "c", "a+b", "a+c", "b+c", "a+b+c"]


def test_butterfly_rho_t1_is_polymatroid():
    profile = capacity_profile(fixtures.butterfly_network())
    report = is_polymatroid(profile.rho_t_function("t1"), tol=0)
    assert report.holds


def test_zero_function_satisfies_both():
    f = sf(("a", "b"), 0, 0, 0)
    assert is_polymatroid(f).holds
    assert is_copolymatroid(f).holds


def test_explicit_float_tolerance_keeps_rational_checks_exact():
    # With the float tolerance added in, the pair (s2, s1+s2) would compare
    # exact 19/3 against float(19/3), which rounds below it.
    f = sf(("s1", "s2"), Fraction(7, 3), 3, Fraction(10, 3))
    assert is_polymatroid(f).holds
    assert is_polymatroid(f, tol=0.0).holds
    assert is_polymatroid(f, tol=0).holds


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
def test_invalid_tolerance_rejected(tol):
    f = sf(("a", "b"), 1, 1, 2)
    with pytest.raises(ValueError, match="tolerance"):
        is_polymatroid(f, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        is_copolymatroid(f, tol=tol)


def test_submodularity_violation_witness():
    f = sf(("a", "b"), 2, 2, 5)
    report = is_polymatroid(f)
    assert not report.holds
    assert report.axiom == "submodularity"
    S, T = report.witness
    assert {S, T} == {frozenset({"a"}), frozenset({"b"})}
    # The witness is self-certifying: re-evaluate the named axiom.
    assert f(S & T) + f(S | T) > f(S) + f(T)


def test_monotonicity_violation_witness():
    f = sf(("a", "b"), 3, 1, 2)
    report = is_polymatroid(f)
    assert not report.holds
    assert report.axiom == "monotonicity"
    S, T = report.witness
    assert S < T and f(S) > f(T)


def test_copolymatroid_of_entropy_profiles():
    rng = random.Random(11)
    for _ in range(10):
        m = random_source_model(rng, ("a", "b", "c"))
        sigma = entropy_profile(m).sigma
        assert is_copolymatroid(sigma, tol=1e-9).holds


def test_submodular_but_not_supermodular_reported():
    f = sf(("a", "b"), 2, 2, 3)  # strictly submodular
    assert is_polymatroid(f).holds
    report = is_copolymatroid(f)
    assert not report.holds and report.axiom == "supermodularity"
    S, T = report.witness
    assert f(S & T) + f(S | T) < f(S) + f(T)


def test_incomplete_function_rejected():
    with pytest.raises(DocumentError, match="every nonempty subset"):
        SetFunction(ground=("a", "b"), values={frozenset({"a"}): Fraction(1)})


def _floats(*values):
    subsets = iter_nonempty_subsets(("a", "b"))
    return SetFunction(ground=("a", "b"), values=dict(zip(subsets, map(float, values))))


@pytest.mark.parametrize("values", [(math.nan, 1, 2), (5, 1, math.nan)])
def test_nan_value_rejected(values):
    with pytest.raises(DocumentError, match="NaN"):
        _floats(*values)
    doc = '{"ground": ["a", "b"], "values": {"a": %r, "b": %r, "a+b": %r}}' % values
    with pytest.raises(DocumentError, match="NaN"):
        parse_setfunction(doc.replace("nan", "NaN"))


def test_infinite_value_allowed():
    assert is_polymatroid(_floats(1, math.inf, math.inf)).holds


def test_sandwich_on_boundary_instance():
    sigma = sf(("s1", "s2"), 1, 1, 2)
    rho = sf(("s1", "s2"), 2, 1, 2)
    result = sandwich_feasible(sigma, rho)
    assert result.point is not None
    assert result.point.rates == {"s1": Fraction(1), "s2": Fraction(1)}


def test_sandwich_with_slack_returns_valid_point():
    sigma = sf(("a", "b"), 1, 1, 2)
    rho = sf(("a", "b"), 3, 3, 4)
    result = sandwich_feasible(sigma, rho)
    point = result.point
    assert point is not None
    for S in sigma.subsets:
        assert sigma(S) <= point.total(S) <= rho(S)


def test_sandwich_pointwise_violation():
    sigma = sf(("a",), 3)
    rho = sf(("a",), 2)
    result = sandwich_feasible(sigma, rho)
    assert result.point is None
    assert result.violating_subset == frozenset({"a"})


def test_sandwich_requires_axioms():
    not_copoly = sf(("a", "b"), 2, 2, 3)  # submodular, not supermodular
    rho = sf(("a", "b"), 3, 3, 4)
    with pytest.raises(ValueError, match="co-polymatroid"):
        sandwich_feasible(not_copoly, rho)
    sigma = sf(("a", "b"), 1, 1, 2)
    not_poly = sf(("a", "b"), 2, 2, 5)
    with pytest.raises(ValueError, match="polymatroid"):
        sandwich_feasible(sigma, not_poly)


def _random_copolymatroid(rng, ground):
    """Modular weights plus a bump on the full set: exactly supermodular."""
    weights = {g: Fraction(rng.randint(0, 8), rng.choice((1, 2))) for g in ground}
    bump = Fraction(rng.randint(0, 6), 2)
    values = {}
    for S in iter_nonempty_subsets(ground):
        total = sum((weights[g] for g in S), Fraction(0))
        if len(S) == len(ground):
            total += bump
        values[S] = total
    return SetFunction(ground=ground, values=values)


def _random_polymatroid(rng, ground):
    """Truncated modular function min(sum of weights, budget)."""
    weights = {g: Fraction(rng.randint(0, 8), rng.choice((1, 2))) for g in ground}
    budget = Fraction(rng.randint(0, 14), 2)
    values = {
        S: min(sum((weights[g] for g in S), Fraction(0)), budget)
        for S in iter_nonempty_subsets(ground)
    }
    return SetFunction(ground=ground, values=values)


def test_sandwich_matches_pointwise_and_lp_on_random_pairs():
    rng = random.Random(210)
    for trial in range(60):
        size = rng.randint(1, 4)
        ground = tuple(f"g{k}" for k in range(size))
        sigma = _random_copolymatroid(rng, ground)
        rho = _random_polymatroid(rng, ground)
        pointwise = all(sigma(S) <= rho(S) for S in sigma.subsets)
        # Independent route: one LP over the full two-sided system.
        constraints = []
        for S in sigma.subsets:
            constraints.append((S, ">=", sigma(S)))
            constraints.append((S, "<=", rho(S)))
        lp_point = simplex.solve_feasibility(ground, constraints)
        result = sandwich_feasible(sigma, rho)
        assert (result.point is not None) == pointwise == (lp_point is not None)
        if result.point is not None:
            for S in sigma.subsets:
                assert sigma(S) <= result.point.total(S) <= rho(S)


def test_parse_setfunction_round_trip():
    f = sf(("s1", "s2"), 1, 1, 2)
    doc = setfunction_to_document(f)
    parsed = parse_setfunction(json.dumps(doc))
    assert parsed.ground == f.ground
    assert parsed.values == f.values


def test_parse_setfunction_errors():
    with pytest.raises(DocumentError, match="outside the ground set"):
        parse_setfunction(json.dumps({"ground": ["a"], "values": {"zz": 1}}))
    with pytest.raises(DocumentError, match="JSON"):
        parse_setfunction("{")
