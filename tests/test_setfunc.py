"""Polymatroid axioms, violation witnesses, and the sandwich feasibility test."""

import json
import math
import random
from fractions import Fraction

import pytest

from netmatch import fixtures
from netmatch.entropy import SourceModel, entropy_profile
from netmatch.errors import DocumentError, LimitError
from netmatch.graph import Edge, Network
from netmatch.mincut import capacity_profile
from netmatch.setfunc import (
    MAX_SOURCES,
    SetFunction,
    is_copolymatroid,
    is_polymatroid,
    members,
    parse_setfunction,
    sandwich_feasible,
    subset_label,
    subset_masks,
)
from netmatch import simplex
from netmatch.scalars import INF

from conftest import (iter_nonempty_subsets, random_network, random_source_model,
                      reference_axioms, set_function, setfunction_to_document, subset_values)


def sf(ground, *values):
    subsets = iter_nonempty_subsets(tuple(ground))
    return set_function(ground, dict(zip(subsets, map(Fraction, values))))


def test_subset_order_is_size_then_position():
    ground = ("a", "b", "c")
    labels = [subset_label(members(mask, ground), ground) for mask in subset_masks(3)]
    assert labels == ["a", "b", "c", "a+b", "a+c", "b+c", "a+b+c"]


@pytest.mark.parametrize("k", range(11))
def test_subset_masks_follow_the_reference_order(k):
    ground = tuple(f"g{p}" for p in range(k))
    assert [members(mask, ground) for mask in subset_masks(k)] == list(iter_nonempty_subsets(ground))
    assert subset_masks(k) is subset_masks(k)  # one cached order per k


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
        set_function(("a", "b"), {frozenset({"a"}): Fraction(1)})


def test_values_are_one_per_mask_with_zero_for_the_empty_set():
    f = SetFunction(("a", "b"), (0, Fraction(1), Fraction(2), Fraction(3)))
    assert (f({"a"}), f({"b"}), f({"b", "a"}), f(set())) == (1, 2, 3, 0)
    with pytest.raises(DocumentError, match=r"every nonempty subset \(2 given, 3 required\)"):
        SetFunction(("a", "b"), (0, 1, 2))
    with pytest.raises(DocumentError, match="empty set"):
        SetFunction(("a", "b"), (1, 1, 2, 3))
    with pytest.raises(DocumentError, match=r"negative value on subset \['b'\]"):
        SetFunction(("a", "b"), (0, 1, -2, 3))


def _floats(*values):
    subsets = iter_nonempty_subsets(("a", "b"))
    return set_function(("a", "b"), dict(zip(subsets, map(float, values))))


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
    for S in iter_nonempty_subsets(sigma.ground):
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
    return set_function(ground, values)


def _random_polymatroid(rng, ground):
    """Truncated modular function min(sum of weights, budget)."""
    weights = {g: Fraction(rng.randint(0, 8), rng.choice((1, 2))) for g in ground}
    budget = Fraction(rng.randint(0, 14), 2)
    values = {
        S: min(sum((weights[g] for g in S), Fraction(0)), budget)
        for S in iter_nonempty_subsets(ground)
    }
    return set_function(ground, values)


def test_sandwich_matches_pointwise_and_lp_on_random_pairs():
    rng = random.Random(210)
    for trial in range(60):
        size = rng.randint(1, 4)
        ground = tuple(f"g{k}" for k in range(size))
        sigma = _random_copolymatroid(rng, ground)
        rho = _random_polymatroid(rng, ground)
        subsets = iter_nonempty_subsets(ground)
        pointwise = all(sigma(S) <= rho(S) for S in subsets)
        # Independent route: one LP over the full two-sided system.
        constraints = []
        for S in subsets:
            constraints.append((S, ">=", sigma(S)))
            constraints.append((S, "<=", rho(S)))
        lp_point = simplex.solve_feasibility(ground, constraints)
        result = sandwich_feasible(sigma, rho)
        assert (result.point is not None) == pointwise == (lp_point is not None)
        if result.point is not None:
            for S in subsets:
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


# --- The axiom engine against the pair-by-pair oracle -----------------------

#: Functions per family and ground set size: the oracle is O(4^k).
_PER_SIZE = {1: 6, 2: 6, 3: 6, 4: 6, 5: 4, 6: 3, 7: 2, 8: 1}


def _assert_matches_oracle(f, tol=None):
    """Both checks return the oracle's (holds, axiom, witness); returns them."""
    reports = (is_polymatroid(f, tol), is_copolymatroid(f, tol))
    assert reports == (reference_axioms(f, tol, submodular=True),
                       reference_axioms(f, tol, submodular=False))
    return reports


def _coverage(rng, ground, items=10):
    """Weighted coverage function: a rational polymatroid."""
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(items)]
    covers = {g: {i for i in range(items) if rng.random() < 0.35} for g in ground}
    return set_function(ground, {
        S: sum((weights[i] for i in set().union(*(covers[g] for g in S))), Fraction(0))
        for S in iter_nonempty_subsets(ground)
    })


def _nudged(rng, f, delta):
    """``f`` with one value, at a random subset, raised or lowered by ``delta``."""
    S = rng.choice(iter_nonempty_subsets(f.ground))
    value = f(S) + delta if rng.random() < 0.5 else max(f(S) - delta, 0 * delta)
    return set_function(f.ground, {**subset_values(f), S: value})


def _ground(k):
    return tuple(f"g{p}" for p in range(k))


@pytest.mark.parametrize("k", range(1, 9))
def test_axioms_match_oracle_on_rational_functions(k):
    rng = random.Random(4100 + k)
    failing = set()
    for _ in range(_PER_SIZE[k]):
        f = _coverage(rng, _ground(k))
        assert _assert_matches_oracle(f)[0].holds
        _assert_matches_oracle(_random_copolymatroid(rng, _ground(k)))
        _assert_matches_oracle(_random_polymatroid(rng, _ground(k)))
        for _ in range(4):
            g = _nudged(rng, f, Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 6))))
            failing.add(_assert_matches_oracle(g)[0].axiom)
        # Raised past f(i) + f(N - i), the full set's value breaks submodularity.
        full = frozenset(f.ground)
        g = set_function(f.ground, {**subset_values(f), full: 2 * f(full) + 1})
        failing.add(_assert_matches_oracle(g)[0].axiom)
        # Scaled past int64 range: the same checks on Python integers.
        for h in (f, g):
            _assert_matches_oracle(set_function(h.ground, {
                S: v * Fraction(2**70, 3**45) for S, v in subset_values(h).items()}))
    if k > 1:  # the witness path runs, for both polymatroid axioms
        assert {"monotonicity", "submodularity"} <= failing


@pytest.mark.parametrize("k", range(1, 9))
def test_axioms_match_oracle_on_rational_functions_with_tolerance(k):
    rng = random.Random(4200 + k)
    for _ in range(_PER_SIZE[k]):
        f = _coverage(rng, _ground(k))
        for tol in (Fraction(1, 2), 0.25, 1e-9):
            # Nudges of exactly the tolerance, and just beyond it.
            for delta in (Fraction(tol), Fraction(tol) + Fraction(1, 6)):
                _assert_matches_oracle(_nudged(rng, f, delta), tol)


@pytest.mark.parametrize("k", range(1, 9))
def test_axioms_match_oracle_on_float_functions_near_ties(k):
    # Float copies of coverage functions are tight up to rounding, so
    # nudges at the scale of the tolerance decide the verdicts.
    rng = random.Random(4250 + k)
    for _ in range(_PER_SIZE[k]):
        f = _coverage(rng, _ground(k))
        f = set_function(f.ground, {S: float(v) for S, v in subset_values(f).items()})
        _assert_matches_oracle(f, 0.0)
        for tol, delta in ((0.0, 1e-12), (1e-9, 5e-10), (1e-9, 3e-9)):
            _assert_matches_oracle(_nudged(rng, f, delta), tol)


@pytest.mark.parametrize("k", range(1, 9))
def test_axioms_match_oracle_on_entropy_profiles(k):
    rng = random.Random(4300 + k)
    for _ in range(_PER_SIZE[k]):
        m = random_source_model(rng, _ground(k), max_alphabet=3 if k <= 5 else 2,
                                rational=rng.random() < 0.5)
        profile = entropy_profile(m)
        for f in (profile.sigma, profile.joint):
            _assert_matches_oracle(f)
            _assert_matches_oracle(f, 1e-9)
            _assert_matches_oracle(_nudged(rng, f, rng.choice((1e-10, 1e-3, 0.5))), 1e-9)


def test_axioms_match_oracle_on_capacity_functions_with_infinite_edges():
    rng = random.Random(4400)
    seen_inf = 0
    for _ in range(40):
        net = random_network(rng, max_nodes=9, max_sources=5, max_sinks=3)
        net = Network(nodes=net.nodes, sources=net.sources, sinks=net.sinks, edges=tuple(
            Edge(e.tail, e.head, INF) if rng.random() < 0.25 else e for e in net.edges))
        profile = capacity_profile(net)
        for f in [profile.rho_n_function()] + [profile.rho_t_function(t) for t in net.sinks]:
            seen_inf += INF in f.values
            for tol in (None, 0, 0.0, 1e-9):
                _assert_matches_oracle(f, tol)
    assert seen_inf >= 10


@pytest.mark.parametrize("k", [MAX_SOURCES, MAX_SOURCES + 1])
def test_both_subset_walks_stop_past_the_source_cap(k):
    # capacity_profile and entropy_profile each allocate 2^k slots; both
    # take MAX_SOURCES sources and refuse one more before allocating.
    names = tuple(f"s{i}" for i in range(k))
    net = Network(names + ("t",), tuple(Edge(s, "t", Fraction(1)) for s in names),
                  names, ("t",))
    model = SourceModel(names, (1,) * k, {(0,) * k: Fraction(1)})
    walks = (lambda: capacity_profile(net).network_wide,
             lambda: entropy_profile(model).sigma.values)
    for walk in walks:
        if k <= MAX_SOURCES:
            assert len(walk()) == 1 << k
            continue
        with pytest.raises(LimitError) as raised:
            walk()
        assert str(raised.value) == f"{k} sources exceed the subset enumeration bound 16"
