"""Polymatroid axioms, violation witnesses, and the sandwich feasibility test."""

import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from netmatch import fixtures, setfunc
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
    subset_label,
    subset_labels,
    subset_masks,
)
from netmatch import simplex
from netmatch.regions import sandwich_feasible
from netmatch.scalars import INF, snap_to_rational

from conftest import (iter_nonempty_subsets, random_network, random_source_model,
                      reference_axioms, set_function, setfunction_to_document, subset_values)


def sf(ground, *values):
    subsets = iter_nonempty_subsets(tuple(ground))
    return set_function(ground, dict(zip(subsets, map(Fraction, values))))


def test_subset_order_is_size_then_position():
    ground = ("a", "b", "c")
    labels = [subset_label(members(mask, ground), ground) for mask in subset_masks(3)]
    assert labels == ["a", "b", "c", "a+b", "a+c", "b+c", "a+b+c"]


@pytest.mark.parametrize("k", range(1, 9))
def test_subset_labels_by_mask_match_subset_label(k):
    ground = tuple(f"g{p}" for p in reversed(range(k)))  # labels follow ground order
    labels = subset_labels(ground)
    assert labels == [""] + [subset_label(members(mask, ground), ground)
                             for mask in range(1, 1 << k)]


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


_NUMPY_TOLERANCES = [np.float32(0.5), np.float64(0.5), np.float32(0.25), np.float64(0.125),
                     np.int64(0), np.int64(1)]


@pytest.mark.parametrize("tol", _NUMPY_TOLERANCES, ids=lambda t: f"{type(t).__name__}-{t}")
@pytest.mark.parametrize("exact", [True, False])
def test_a_numpy_tolerance_gives_what_the_equal_python_scalar_gives(tol, exact):
    # sigma misses submodularity by 1/2 and exceeds rho on {a, b} by 1/4.
    sigma = sf(("a", "b"), 1, 1, Fraction(5, 2))
    rho = sf(("a", "b"), 1, Fraction(3, 2), Fraction(9, 4))
    if not exact:
        sigma, rho = (SetFunction(f.ground, [float(v) for v in f.values]) for f in (sigma, rho))
    python = tol.item()
    assert type(python) in (int, float)
    for f in (sigma, rho):
        assert is_polymatroid(f, tol) == is_polymatroid(f, python)
        assert is_copolymatroid(f, tol) == is_copolymatroid(f, python)
    assert sandwich_feasible(sigma, rho, tol) == sandwich_feasible(sigma, rho, python)
    assert is_polymatroid(sigma, tol).holds == (python >= 0.5)
    assert bool(sandwich_feasible(sigma, rho, tol)) == (python >= 0.25)


@pytest.mark.parametrize("tol", [np.int64(0), np.int64(1)])
def test_an_int64_tolerance_is_scaled_as_a_python_int(tol):
    # Over the values' common denominator 2^70 an int64 tolerance would
    # overflow; f misses submodularity by 1 - 2^-70.
    e = Fraction(1, 2**70)
    f = SetFunction(("a", "b"), (0, e, e, 1 + e))
    assert is_polymatroid(f, tol) == is_polymatroid(f, tol.item())
    assert is_polymatroid(f, tol).holds == (tol == 1)


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


#: One call per library constructor that checks source names, each naming
#: a source by the int 1.
_INT_NAMED = {
    "Network": lambda: Network(nodes=(1, "t"), edges=(Edge(1, "t", Fraction(1)),),
                               sources=(1,), sinks=("t",)),
    "SetFunction": lambda: SetFunction(ground=(1,), values=(Fraction(0), Fraction(1))),
    "SourceModel": lambda: SourceModel((1,), (2,), {(0,): Fraction(1)}),
}


@pytest.mark.parametrize("build", _INT_NAMED.values(), ids=list(_INT_NAMED))
def test_a_source_name_that_is_not_a_string_is_a_document_error(build):
    # It used to end in TypeError from the separator test, or not at all.
    with pytest.raises(DocumentError, match="source names must be strings, got 1"):
        build()


def test_lists_given_to_a_network_or_set_function_are_copied():
    nodes, edges, sources, sinks = ["s", "t"], [Edge("s", "t", Fraction(1))], ["s"], ["t"]
    net = Network(nodes=nodes, edges=edges, sources=sources, sinks=sinks)
    ground, values = ["a"], [Fraction(0), Fraction(1)]
    f = SetFunction(ground=ground, values=values)
    nodes.append("u")
    edges.append(Edge("t", "s", Fraction(2)))
    sources[0], sinks[0], ground[0], values[1] = "t", "s", "b", Fraction(5)
    assert (net.nodes, net.edges, net.sources, net.sinks) == (
        ("s", "t"), (Edge("s", "t", Fraction(1)),), ("s",), ("t",))
    assert net.out_edges("t") == ()
    assert (f.ground, f.values) == (("a",), (Fraction(0), Fraction(1)))


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


@pytest.mark.parametrize("value", [np.int64(1), np.float32(0.5)])
@pytest.mark.parametrize("side", ["sigma", "rho"])
def test_sandwich_on_numpy_values_gives_what_their_python_values_give(value, side):
    # The int64 used to end in OverflowError, the float32 in TypeError.
    def pair(v):
        f = SetFunction(("a",), (0, v))
        if side == "sigma":
            return f, SetFunction(("a",), (0, Fraction(2)))
        return SetFunction(("a",), (0, Fraction(1, 4))), f
    got, want = sandwich_feasible(*pair(value)), sandwich_feasible(*pair(value.item()))
    assert got == want and repr(got) == repr(want) and got.point is not None


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
        lp_point = simplex.point_or_iis(ground, constraints)[0]
        result = sandwich_feasible(sigma, rho)
        assert (result.point is not None) == pointwise == (lp_point is not None)
        if result.point is not None:
            for S in subsets:
                assert sigma(S) <= result.point.total(S) <= rho(S)


def test_sandwich_rows_that_snap_into_conflict_are_named():
    # sigma(a) + sigma(b) passes supermodularity and sigma <= rho within
    # 1e-9, but the snapped rows ask R(a) + R(b) > 1 = rho(a+b).
    sigma = SetFunction(("a", "b"), (0.0, 0.5 + 4e-10, 0.5 + 4e-10, 1.0))
    rho = sf(("a", "b"), 1, 1, 1)
    with pytest.raises(ValueError, match="snapped rows conflict") as caught:
        sandwich_feasible(sigma, rho)
    assert str(caught.value).endswith(
        "rho: R[a+b] <= 1; "
        "sigma: R[a] >= 1250000001/2500000000; sigma: R[b] >= 1250000001/2500000000")


def test_sandwich_point_on_near_ties_is_pinned():
    # The simplex's vertex depends on row order; rho's rows come first.
    sigma = SetFunction(("g0", "g1", "g2"), (
        0.0, 1.0958195198021755e-10, 0.9999999996092167, 0.9999999997136516,
        0.49999999982016413, 0.4999999999065258, 1.4999999998509466, 1.4999999996683226))
    rho = SetFunction(sigma.ground, tuple(map(Fraction, (0, 0, 1, 1, "1/2", "1/2", "3/2", "3/2"))))
    assert sandwich_feasible(sigma, rho).point.rates == {
        "g0": 0, "g1": Fraction(124999999993, 125000000000),
        "g2": Fraction(499999999907, 1000000000000)}


@pytest.mark.parametrize("sigma, rho, rate", [
    (1 + 5e-10, Fraction(1), Fraction(1)),
    # rho is off the snap grid, within half a step above sigma: sigma is
    # snapped before the lesser bound is taken, so R(a) is 1/2, not rho.
    (0.5 + 3e-13, Fraction(1, 2) + Fraction(1, 4 * 10**12), Fraction(1, 2)),
])
def test_sandwich_clamps_a_tolerated_tie_to_rho(sigma, rho, rate):
    result = sandwich_feasible(SetFunction(("a",), (0.0, sigma)), sf(("a",), rho))
    assert result.point.rates == {"a": rate}


@pytest.mark.parametrize("sigma, rho", [
    ((0.0, 1.0, INF, INF), (0, 1, INF, INF)),
    # The infinite value on {a} comes before the violation on {b}.
    ((0.0, INF, 2.0, INF), (0, INF, 1, INF)),
])
def test_sandwich_rejects_an_infinite_sigma_value(sigma, rho):
    rho = SetFunction(("a", "b"), tuple(v if v == INF else Fraction(v) for v in rho))
    with pytest.raises(ValueError, match="infinity"):
        sandwich_feasible(SetFunction(("a", "b"), sigma), rho)


def test_sandwich_names_the_subset_of_an_infinite_sigma_value():
    sigma = SetFunction(("a", "b"), (0.0, 1.0, INF, INF))
    rho = SetFunction(("a", "b"), (0, 1, INF, INF))
    with pytest.raises(ValueError, match=r"infinity on \['b'\]"):
        sandwich_feasible(sigma, rho)


def test_sandwich_compares_float_sigma_with_rho_past_the_float_range():
    # rho(S) + tol has no float: the pointwise test compares exactly.
    sigma = SetFunction(("a", "b"), (0.0, 0.5, 0.5, 1.0))
    rho = SetFunction(("a", "b"), (0, 2**1100, 2**1100, 2**1101))
    point = sandwich_feasible(sigma, rho).point
    assert point is not None
    for mask in subset_masks(2):
        S = members(mask, rho.ground)
        assert snap_to_rational(sigma.values[mask]) <= point.total(S) <= rho.values[mask]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(k=st.integers(1, 3), data=st.data())
def test_sandwich_near_ties_give_a_point_within_the_snapped_bounds(k, data):
    # sigma: a rational co-polymatroid (weights plus a bump on the full set)
    # moved by up to 4e-10 per subset; rho: a truncated modular polymatroid
    # near it.  A point must meet min(snap sigma, snap rho) <= R(S) <=
    # snap rho on every S; an AssertionError is never an answer.
    halves = st.integers(0, 4).map(lambda n: Fraction(n, 2))
    w = data.draw(st.lists(halves, min_size=k, max_size=k))
    slack = data.draw(st.lists(st.sampled_from((0, Fraction(1, 2))), min_size=k, max_size=k))
    bump, cut = data.draw(halves), data.draw(st.sampled_from((0, 0, Fraction(1, 2))))
    masks = range(1 << k)
    weight = [sum((w[p] for p in range(k) if m >> p & 1), Fraction(0)) for m in masks]
    weight[-1] += bump
    cap = max(Fraction(0), weight[-1] - cut)
    rho = SetFunction(tuple(f"g{p}" for p in range(k)), [
        min(cap, sum((w[p] + slack[p] for p in range(k) if m >> p & 1), Fraction(0)))
        for m in masks])
    moves = data.draw(st.lists(st.floats(-4e-10, 4e-10), min_size=len(masks) - 1,
                               max_size=len(masks) - 1))
    sigma = SetFunction(rho.ground, [0.0] + [max(0.0, float(v) + d)
                                             for v, d in zip(weight[1:], moves)])
    try:
        result = sandwich_feasible(sigma, rho)
    except ValueError:
        return
    if result.point is None:
        S = result.violating_subset
        assert sigma(S) > rho(S) + 1e-9
        return
    for mask in subset_masks(k):
        S = members(mask, rho.ground)
        assert (min(snap_to_rational(sigma.values[mask]), rho.values[mask])
                <= result.point.total(S) <= rho.values[mask])


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


def test_parse_setfunction_reads_labels_and_other_spellings_alike():
    # Labels are read by lookup; reordered or spaced keys take the split.
    ground = ["a", "b", "c"]
    canonical = {"a": "1", "b": 0.5, "c": "inf", "a+b": "3/2", "a+c": "inf", "b+c": "inf",
                 "a+b+c": "inf"}
    spelled = {"a": "1", " b ": 0.5, "c": "inf", "b+a": "3/2", " c + a ": "inf",
               "c+b": "inf", "c+a+b": "inf"}
    mixed = {**{key: canonical[key] for key in ("a", "b", "a+b", "b+c")},
             " c": "inf", "c + a": "inf", "b+c+a": "inf"}
    f, g, h = (parse_setfunction(json.dumps({"ground": ground, "values": values}))
               for values in (canonical, spelled, mixed))
    assert f == g == h
    assert f.values == (0, 1, 0.5, Fraction(3, 2), INF, INF, INF, INF)


@pytest.mark.parametrize("values, message", [
    ({"a": "1", "b": "1", "a+b": "2", "b+a": "2"},
     "subset 'b+a' names the same subset as 'a+b'"),
    ({"b+a": "2", "a": "1", "b": "1", "a + b": "2"},
     "subset 'a + b' names the same subset as 'b+a'"),
    ({"a": "1", "b": "1", "a+c": "2"}, "subset 'a+c' uses elements outside the ground set"),
    ({"a": "1", "b": "x", "a+b": "2"}, "subset 'b': not a rational value: 'x'"),
    ({"a": "1", "b": "1/0", "a+b": "2"}, "subset 'b': not a rational value: '1/0'"),
])
def test_parse_setfunction_messages_are_kept(values, message):
    with pytest.raises(DocumentError) as raised:
        parse_setfunction(json.dumps({"ground": ["a", "b"], "values": values}))
    assert str(raised.value) == message


@pytest.mark.parametrize("ground, values, result", [
    # A name that stripping changes is never matched, as it never was.
    ([" a", "b"], {" a": "1", "b": "1", " a+b": "2"}, "subset ' a' uses elements outside"),
    # Two equal names: the later one's bit, as before.
    (["a", "a"], {"a": "1", "a+a": "2"}, "subset 'a+a' names the same subset as 'a'"),
    # An empty name, whose subset labels would run together.
    (["", "b"], {"": "1", "b": "1", "+b": "2"}, (0, 1, 1, 2)),
])
def test_parse_setfunction_reads_unusual_names_as_the_split_does(ground, values, result):
    text = json.dumps({"ground": ground, "values": values})
    if isinstance(result, str):
        with pytest.raises(DocumentError) as raised:
            parse_setfunction(text)
        assert str(raised.value).startswith(result)
    else:
        assert parse_setfunction(text).values == result


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


def test_an_infinite_left_side_meets_supermodularity():
    # f(a) + f(b) = inf + 1 against f(a+b) + f() = inf: inf >= inf holds.
    assert is_copolymatroid(SetFunction(("a", "b"), (0, INF, 1, INF))).holds


def test_numpy_scalar_values_are_checked_exactly():
    # f(a) + f(b) = f(a+b) = 1.5 * 2^63, past int64: a modular function,
    # decided on Python integers, not numpy's fixed-width ones.
    f = SetFunction(("a", "b"), (0, np.int64(2**62), np.uint64(2**63),
                                 np.float32(1.5) * np.float32(2**63)))
    assert is_polymatroid(f, 0).holds and is_copolymatroid(f, 0).holds
    g = SetFunction(("a", "b"), (0, np.float32("inf"), np.int64(1), np.float32("inf")))
    assert is_polymatroid(g).holds and is_copolymatroid(g).holds


@settings(max_examples=300, deadline=None, derandomize=True)
@given(k=st.integers(1, 4), data=st.data())
def test_axioms_on_mixed_values_match_the_oracle_on_the_exact_copy(k, data):
    # A rational co-polymatroid (weights plus a bump on the full set),
    # scaled, whose values are kept rational, turned into floats near their
    # value, or made infinite.  At least one stays rational, so no function
    # is all-float.  At scale 2^1019 a sum of two values passes 2^1024 while
    # each value stays below it; at 2^1100 the values themselves are past
    # the float range, and a float stands for the unscaled value, as in
    # {"a": 0.5, "b": "1e400", "a+b": "inf"}.
    halves = st.integers(0, 6).map(lambda n: Fraction(n, 2))
    w = data.draw(st.lists(halves, min_size=k, max_size=k))
    scale = data.draw(st.sampled_from((1, Fraction(1, 3), 2**1019, 2**1100)))
    masks = range(1 << k)
    base = [sum((w[p] for p in range(k) if m >> p & 1), Fraction(0)) for m in masks]
    base[-1] += data.draw(halves)
    keep = data.draw(st.integers(1, len(masks) - 1))
    values = [Fraction(0)]
    for m in masks[1:]:
        v = base[m] * scale
        kind = "rational" if m == keep else data.draw(
            st.sampled_from(("rational", "float", "inf")))
        if kind == "float":
            v = float(v if v < 2**1023 else base[m])
            v = max(0.0, v + data.draw(st.sampled_from((0.0, 1e-12, -1e-12, 0.25))))
        values.append(INF if kind == "inf" else v)
    f = SetFunction(_ground(k), values)
    exact = SetFunction(f.ground, [v if v == INF else Fraction(v) for v in values])
    for tol in (0, 1e-9, Fraction(1, 3)):
        assert (is_polymatroid(f, tol), is_copolymatroid(f, tol)) == (
            reference_axioms(exact, Fraction(tol), submodular=True),
            reference_axioms(exact, Fraction(tol), submodular=False))


def _near_bound(k, seed, family, level, nudge, tol, kind, spread):
    """A function whose worst local gap is x = level * (1 + nudge), for the
    local rule's bounds.  "diamond": modular weights plus
    ±x*|S & P|*|S & Q|, P the first k // 2 elements and Q the rest, so every
    diamond across P and Q misses one axiom by x and the pair (P, Q) by
    floor(k^2/4)*x (values clamped at 0).  "step": k on every nonempty set,
    less x per element, so every chain step from a nonempty set falls by x.
    ``level`` is tol/floor(k^2/4), tol/k or tol, and 2^-40 in their place at
    tolerance 0.  With ``spread``, each weight is scaled by a power of 2
    from 2^-24 to 2^24, so that the rounding of sums of values, or of a sum
    plus tol, can outweigh x.  Values are kept rational, or made floats
    moved by up to one unit in the last place, all of them or (``kind``
    "mixed") some."""
    rng = random.Random(seed)
    exact_tol = Fraction(tol) or Fraction(1, 2**40)
    x = exact_tol / {"pairs": max(1, k * k // 4), "chain": k, "tol": 1}[level] * (1 + nudge)
    weights = [Fraction(rng.randint(9, 27), rng.choice((1, 3)))
               * Fraction(2) ** (rng.randint(-24, 24) if spread else 0) for _ in range(k)]
    sign = rng.choice((1, -1))
    values = [Fraction(0)]
    for m in range(1, 1 << k):
        inside = [p for p in range(k) if m >> p & 1]
        if family == "diamond":
            split = sum(p < k // 2 for p in inside)
            v = max(0, sum(weights[p] for p in inside) + sign * x * split * (len(inside) - split))
        else:
            v = k - x * len(inside)
        if kind == "float" or kind == "mixed" and rng.random() < 0.5:
            v = float(v)
            if v:
                v = math.nextafter(v, rng.choice((0, v, math.inf)))
        values.append(v)
    return SetFunction(_ground(k), values)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(k=st.integers(1, 6), seed=st.integers(0, 2**16),
       family=st.sampled_from(("diamond", "step")), level=st.sampled_from(("pairs", "chain", "tol")),
       nudge=st.sampled_from((-1, Fraction(-1, 8), Fraction(-1, 2**20), 0,
                              Fraction(1, 2**20), Fraction(1, 8))),
       tol=st.sampled_from((0, 0.0, 1e-9, Fraction(1, 3))),
       kind=st.sampled_from(("rational", "float", "mixed")), spread=st.booleans())
@example(k=6, seed=0, family="diamond", level="pairs", nudge=Fraction(1, 2**20),
         tol=Fraction(1, 3), kind="rational", spread=False)
@example(k=5, seed=1, family="diamond", level="pairs", nudge=Fraction(1, 8), tol=1e-9,
         kind="float", spread=False)
@example(k=6, seed=2, family="diamond", level="pairs", nudge=0, tol=1e-9, kind="float",
         spread=False)
@example(k=6, seed=3, family="step", level="chain", nudge=Fraction(1, 2**20), tol=1e-9,
         kind="mixed", spread=False)
def test_local_rule_and_scan_agree_near_the_local_bounds(k, seed, family, level, nudge, tol,
                                                         kind, spread):
    # Just below a bound the local rule decides; just above it the scan
    # does, and must find what the oracle finds.
    _assert_matches_oracle(_near_bound(k, seed, family, level, nudge, tol, kind, spread), tol)


@pytest.mark.parametrize("values, tol", [
    # Modular but for rounding: the scan's sums of values round past 0.
    ((0.0, 34.57036225396882, 1.0451057077743922e-09, 34.57036225501392, 9.02407408282263,
      43.594436336791446, 9.024074083867735, 43.59443633783655), 0.0),
    # A pair gap of tol up to rounding: the scan's sum plus tol rounds below it.
    ((0.0, 0.0008709523457447847, 0.0012202603521063475, 0.3354245460311845), 1 / 3),
])
def test_local_rule_leaves_a_rounding_violation_to_the_scan(values, tol):
    f = SetFunction(_ground(len(values).bit_length() - 1), values)
    assert not _assert_matches_oracle(f, tol)[0].holds


def test_local_rule_and_scan_agree_on_float_sums_moved_by_an_ulp():
    # Float modular functions, summed in float, weights from 2^-30 to 2^30
    # (2^-12 to 2^-4 against tol 1/3, whose own rounding then counts), and
    # every value moved by up to one unit in the last place.
    rng = random.Random(4700)
    for _ in range(2000):
        k, tol = rng.choice((2, 3)), rng.choice((0.0, 1e-9, 1 / 3))
        low, high = (-12, -4) if tol == 1 / 3 else (-30, 30)
        weights = [rng.random() * 2.0 ** rng.randint(low, high) for _ in range(k)]
        values = [0.0] * (1 << k)
        for m in range(1, 1 << k):
            bit = m & -m
            values[m] = values[m ^ bit] + weights[bit.bit_length() - 1]
        values[-1] += tol if tol == 1 / 3 else 0.0
        values = [math.nextafter(v, rng.choice((0.0, v, math.inf))) if v else v for v in values]
        _assert_matches_oracle(SetFunction(_ground(k), values), tol)


def _with_inf(rng, k, upward):
    """A rational polymatroid or co-polymatroid, some of whose values are
    inf: on every superset of one to three drawn sets when ``upward``,
    otherwise on the drawn sets alone."""
    ground = _ground(k)
    f = rng.choice((_coverage, _random_copolymatroid, _random_polymatroid))(rng, ground)
    drawn = rng.sample(range(1, 1 << k), min(rng.randint(1, 3), (1 << k) - 1))
    values = [INF if any((m & d == d) if upward else m == d for d in drawn) else v
              for m, v in enumerate(f.values)]
    return SetFunction(ground, values)


@pytest.mark.parametrize("k", range(1, 7))
def test_axioms_match_oracle_on_rational_functions_with_inf(k):
    rng = random.Random(4500 + k)
    for _ in range(2 * _PER_SIZE[k]):
        for upward in (True, False):
            f = _with_inf(rng, k, upward)
            for tol in (None, 0, 0.0, 1e-9, Fraction(1, 3)):
                _assert_matches_oracle(f, tol)


def _no_scan(*args, **kwargs):
    raise AssertionError("the pair scan ran")


def test_an_inf_closed_upward_polymatroid_at_tolerance_0_takes_no_pair_scan(monkeypatch):
    # Coverage at k=8 with inf on every set holding g0 or g5.
    rng = random.Random(4600)
    f = _coverage(rng, _ground(8))
    values = [INF if m & 0b100001 else v for m, v in enumerate(f.values)]
    f = SetFunction(f.ground, values)
    assert reference_axioms(f, 0, submodular=True).holds
    monkeypatch.setattr(setfunc, "_first_violation", _no_scan)
    assert is_polymatroid(f, 0).holds


def test_a_passing_float_function_at_k16_takes_no_pair_scan(monkeypatch):
    # A modular float function: the pair scan over 4^16 pairs took over a
    # minute; the local rule takes O(k^2 2^k).
    k = MAX_SOURCES
    weights = [0.1 * (p + 1) for p in range(k)]
    values = [0.0] * (1 << k)
    for m in range(1, 1 << k):
        low = m & -m
        values[m] = values[m ^ low] + weights[low.bit_length() - 1]
    f = SetFunction(_ground(k), values)
    monkeypatch.setattr(setfunc, "_first_violation", _no_scan)
    assert is_polymatroid(f, 1e-9).holds and is_copolymatroid(f, 1e-9).holds


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


def test_a_ground_set_past_the_source_cap_is_refused_before_allocating():
    # 40 names would ask for 2^40 value slots; the cap is checked first.
    doc = json.dumps({"ground": [f"g{i}" for i in range(40)], "values": {}})
    tracemalloc.start()
    try:
        with pytest.raises(LimitError, match="^40 sources exceed the subset enumeration bound"):
            parse_setfunction(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("k", [MAX_SOURCES, MAX_SOURCES + 1])
def test_a_set_function_takes_at_most_the_source_cap(k):
    values = [Fraction(0)] * (1 << k)
    if k <= MAX_SOURCES:
        assert len(SetFunction(_ground(k), values).values) == 1 << k
        # A document of k names is read up to its missing values.
        doc = json.dumps({"ground": list(_ground(k)), "values": {}})
        with pytest.raises(DocumentError, match=r"\(0 given, 65535 required\)"):
            parse_setfunction(doc)
        return
    with pytest.raises(LimitError, match=f"^{k} sources exceed the subset enumeration bound 16$"):
        SetFunction(_ground(k), values)
