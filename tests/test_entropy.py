"""Source models and entropy rates, checked against a high-precision oracle."""

import json
import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from netmatch import fixtures
from netmatch.entropy import (
    SourceModel,
    aligned,
    binary_entropy,
    conditional_entropy,
    entropy_profile,
    _shannon_bits,
    joint_entropy,
    parse_source_model,
    validate_model,
)
from netmatch.errors import DocumentError
from netmatch.regions import equivalence_check, separation_check
from netmatch.setfunc import is_copolymatroid
from netmatch.simulator import build_code, decode, estimate_error, propagate
from netmatch.transmissibility import check

from conftest import (iter_nonempty_subsets, marginal_pmf, random_source_model,
                      source_model_to_document)


def oracle_binary_entropy(p: float) -> float:
    """Decimal evaluation at 60 digits of the same formula."""
    getcontext().prec = 60
    x = Decimal(p)  # exact binary-to-decimal conversion of the float
    ln2 = Decimal(2).ln()
    h = -(x * x.ln() + (1 - x) * (1 - x).ln()) / ln2
    return float(h)


def test_binary_entropy_basics():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0) == 0.0
    assert binary_entropy(1) == 0.0
    assert binary_entropy(Fraction(1, 2)) == 1.0


def test_binary_entropy_against_oracle():
    for p in (0.11, 0.25, 0.01, 0.4999, 0.73):
        assert binary_entropy(p) == pytest.approx(oracle_binary_entropy(p), abs=1e-12)
    assert binary_entropy(0.11) == pytest.approx(0.499916, abs=5e-7)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.0001)


def test_uniform_pair_entropies_exact():
    m = fixtures.uniform_pair_source()
    assert joint_entropy(m, {"s1", "s2"}) == 2.0
    assert joint_entropy(m, {"s1"}) == 1.0
    assert conditional_entropy(m, {"s1"}) == 1.0
    assert conditional_entropy(m, {"s1", "s2"}) == 2.0


def test_deterministic_source_has_zero_entropy():
    m = SourceModel(("a", "b"), (2, 2), {(1, 0): Fraction(1)})
    assert joint_entropy(m, {"a", "b"}) == 0.0
    assert conditional_entropy(m, {"a"}) == 0.0


def test_dsbs_entropies():
    p = 0.11
    m = fixtures.dsbs_source(p)
    h = oracle_binary_entropy(p)
    assert joint_entropy(m, {"s1", "s2"}) == pytest.approx(1 + h, abs=1e-12)
    assert conditional_entropy(m, {"s2"}) == pytest.approx(h, abs=1e-12)
    assert conditional_entropy(m, {"s1"}) == pytest.approx(h, abs=1e-12)


def test_independent_pair_conditioning_drops():
    rng = random.Random(3)
    marginal_a = [Fraction(1, 4), Fraction(3, 4)]
    marginal_b = [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)]
    pmf = {
        (a, b): marginal_a[a] * marginal_b[b]
        for a in range(2)
        for b in range(3)
    }
    m = SourceModel(("a", "b"), (2, 3), pmf)
    assert conditional_entropy(m, {"a"}) == pytest.approx(joint_entropy(m, {"a"}), abs=1e-12)
    total = sum(-float(p) * math.log2(float(p)) for p in marginal_a)
    assert joint_entropy(m, {"a"}) == pytest.approx(total, abs=1e-12)


def test_validate_model_errors():
    with pytest.raises(DocumentError, match="sums"):
        validate_model(SourceModel(("a",), (2,), {(0,): Fraction(9, 10)}))
    with pytest.raises(DocumentError, match="arity"):
        validate_model(SourceModel(("a", "b"), (2, 2), {(0,): Fraction(1)}))
    with pytest.raises(DocumentError, match="alphabet"):
        validate_model(SourceModel(("a",), (2,), {(5,): Fraction(1)}))
    with pytest.raises(DocumentError, match="negative"):
        validate_model(SourceModel(("a",), (2,), {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)}))


def test_boolean_alphabet_sizes_and_symbols_rejected():
    with pytest.raises(DocumentError, match="alphabet sizes"):
        validate_model(SourceModel(("a", "b"), (True, 2), {(0, 0): Fraction(1)}))
    with pytest.raises(DocumentError, match="symbol True"):
        validate_model(SourceModel(("a",), (2,), {(True,): Fraction(1, 2), (0,): Fraction(1, 2)}))
    doc = {"sources": ["a", "b"], "alphabets": [True, 2],
           "pmf": [{"symbols": [0, 0], "p": "1/2"}, {"symbols": [0, 1], "p": "1/2"}]}
    with pytest.raises(DocumentError, match="alphabet sizes"):
        parse_source_model(json.dumps(doc))
    doc["alphabets"] = [2, 2]
    doc["pmf"][1]["symbols"] = [False, 1]
    with pytest.raises(DocumentError, match="symbol False"):
        parse_source_model(json.dumps(doc))


def _entry_points(model):
    """Calls of check, equivalence_check, separation_check, estimate_error
    and decode on ``model`` with the butterfly network."""
    net = fixtures.butterfly_network()
    code = build_code(net, {"s1": 2, "s2": 2}, 2, Fraction(1, 4), Fraction(1, 20), seed=3)
    z = propagate(code, [(0, 1), (1, 0)])
    return [
        lambda: check(net, model),
        lambda: equivalence_check(net, model),
        lambda: separation_check(net, model),
        lambda: estimate_error(net, model, 2, Fraction(1, 4), Fraction(1, 20), 0.5, 5, 1),
        lambda: decode(code, model, "t1", z["t1"], 0.5),
    ]


def test_a_model_that_lists_a_source_twice_is_rejected_everywhere():
    # The names match the network's as a set; estimate_error used to take
    # such a model and report every trial as an error.
    pmf = {(a, b, c): Fraction(1, 8) for a in range(2) for b in range(2) for c in range(2)}
    model = SourceModel(("s1", "s1", "s2"), (2, 2, 2), pmf)
    for call in _entry_points(model):
        with pytest.raises(DocumentError, match="duplicate source name"):
            call()
    with pytest.raises(DocumentError, match="duplicate source name"):
        validate_model(model)


@pytest.mark.parametrize("sizes, pmf, message", [
    ((2, 2), {(0,): Fraction(1)}, "arity"),
    ((2, 2), {(0, 5): Fraction(1, 2), (1, 1): Fraction(1, 2)}, "outside alphabet"),
    ((True, 2), {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}, "alphabet sizes"),
], ids=["arity", "symbol", "bool-size"])
def test_a_malformed_model_in_another_order_is_validated_before_it_is_aligned(
        sizes, pmf, message):
    # The butterfly lists s1, s2; this model lists s2, s1, so aligned()
    # permutes it, and must validate it first: an IndexError is no verdict.
    model = SourceModel(("s2", "s1"), sizes, pmf)
    for call in _entry_points(model):
        with pytest.raises(DocumentError, match=message):
            call()


@pytest.mark.parametrize("sources, pmf, message", [
    (("s1", 2), {(0, 0): Fraction(1)}, "source names must be strings"),
    (("s1", "s2"), {(0, 0): "1/2", (1, 1): "1/2"}, "is not a Fraction, int or float"),
    (("s1", "s2"), {(0, 0): Decimal("0.5"), (1, 1): Decimal("0.5")},
     "is not a Fraction, int or float"),
], ids=["int-name", "str-probability", "decimal-probability"])
def test_a_library_model_of_the_wrong_types_is_a_document_error(sources, pmf, message):
    # parse_source_model admits only these types; a model built in Python
    # used to end in TypeError from a comparison or a sum.
    model = SourceModel(sources, (2, 2), pmf)
    with pytest.raises(DocumentError, match=message):
        validate_model(model)
    with pytest.raises(DocumentError, match=message):
        entropy_profile(model)
    for call in _entry_points(model):
        with pytest.raises(DocumentError):
            call()


def test_aligned_permutes_columns_and_keeps_the_pmf_entry_order():
    m = fixtures.dsbs_source(Fraction(11, 100))
    assert aligned(m, m.sources) is m
    swapped = aligned(m, m.sources[::-1])
    assert swapped.sources == m.sources[::-1]
    assert swapped.alphabet_sizes == m.alphabet_sizes[::-1]
    assert list(swapped.pmf.items()) == [(tup[::-1], p) for tup, p in m.pmf.items()]
    with pytest.raises(DocumentError, match="do not match"):
        aligned(m, ("x", "y"))


def test_float_pmf_tolerance():
    good = SourceModel(("a",), (2,), {(0,): 0.5, (1,): 0.5 + 1e-13})
    validate_model(good)
    with pytest.raises(DocumentError):
        validate_model(SourceModel(("a",), (2,), {(0,): 0.5, (1,): 0.4}))


def test_parse_source_document_round_trip():
    m = fixtures.dsbs_source(Fraction(11, 100))
    text = json.dumps(source_model_to_document(m))
    parsed = parse_source_model(text)
    assert parsed.sources == m.sources
    assert parsed.pmf == dict(m.pmf)


def test_parse_source_document_errors():
    base = {
        "sources": ["a"],
        "alphabets": [2],
        "pmf": [{"symbols": [0], "p": "1/2"}, {"symbols": [1], "p": "1/2"}],
    }
    bad = dict(base)
    bad["pmf"] = base["pmf"] + [{"symbols": [0], "p": "1/2"}]
    with pytest.raises(DocumentError, match="duplicate"):
        parse_source_model(json.dumps(bad))
    with pytest.raises(DocumentError, match="JSON"):
        parse_source_model("[oops")


def test_chain_identity():
    rng = random.Random(17)
    for _ in range(20):
        m = random_source_model(rng, ("a", "b", "c"))
        ep = entropy_profile(m)
        full = ep.joint(frozenset(("a", "b", "c")))
        for S in iter_nonempty_subsets(m.sources):
            rest = frozenset(m.sources) - S
            assert ep.sigma(S) + ep.joint(rest) == pytest.approx(full, abs=1e-12)


def test_profile_monotone_and_supermodular():
    rng = random.Random(18)
    for rational in (True, False):
        for _ in range(15):
            m = random_source_model(rng, ("a", "b", "c"), rational=rational)
            ep = entropy_profile(m)
            report = is_copolymatroid(ep.sigma, tol=1e-9)
            assert report.holds, report
            subsets = iter_nonempty_subsets(m.sources)
            for S in subsets:
                for T in subsets:
                    if S <= T:
                        assert ep.sigma(S) <= ep.sigma(T) + 1e-9
                        assert ep.joint(S) <= ep.joint(T) + 1e-9


def test_profile_bounds():
    rng = random.Random(19)
    for _ in range(10):
        m = random_source_model(rng, ("a", "b"))
        ep = entropy_profile(m)
        for S in iter_nonempty_subsets(m.sources):
            cap = sum(math.log2(m.alphabet_sizes[m.sources.index(s)]) for s in S)
            assert 0.0 <= ep.sigma(S) <= ep.joint(S) + 1e-12
            assert ep.joint(S) <= cap + 1e-12


def test_example_profiles():
    ep = entropy_profile(fixtures.uniform_pair_source())
    assert ep.sigma.values[1:] == (1.0, 1.0, 2.0)
    p = 0.11
    ep2 = entropy_profile(fixtures.dsbs_source(p))
    h = oracle_binary_entropy(p)
    values = list(ep2.sigma.values[1:])
    assert values == pytest.approx([h, h, 1 + h], abs=1e-12)


def test_empty_subset_rejected():
    m = fixtures.uniform_pair_source()
    with pytest.raises(ValueError):
        joint_entropy(m, set())
    with pytest.raises(ValueError):
        conditional_entropy(m, set())


@pytest.mark.parametrize("rational", [True, False])
def test_profile_matches_joint_entropy_bitwise(rational):
    # The lattice walk and the single-subset marginal share the integer
    # weights, so they agree to the last bit for float pmfs as well; on
    # rational pmfs both equal the direct Fraction marginal formula.
    rng = random.Random(31 if rational else 32)
    for _ in range(20):
        sources = [f"s{k}" for k in range(rng.randint(1, 4))]
        m = random_source_model(rng, sources, max_alphabet=4, rational=rational)
        ep = entropy_profile(m)
        for S in iter_nonempty_subsets(m.sources):
            assert ep.joint(S).hex() == joint_entropy(m, S).hex()
            if rational:
                direct = _shannon_bits(marginal_pmf(m, S).values())
                assert ep.joint(S).hex() == direct.hex()


def test_nan_probability_rejected():
    doc = ('{"sources": ["a", "b"], "alphabets": [2, 2], "pmf": ['
           '{"symbols": [0, 0], "p": NaN}, {"symbols": [1, 1], "p": 1}]}')
    with pytest.raises(DocumentError, match="non-finite"):
        parse_source_model(doc)
