"""Source models and entropy rates, checked against a high-precision oracle."""

import copy
import itertools
import json
import math
import pickle
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from netmatch import entropy, fixtures
from netmatch.entropy import (
    SourceModel,
    aligned,
    binary_entropy,
    conditional_entropy,
    entropy_profile,
    _integer_weights,
    _joint_by_dict,
    _joint_by_tensor,
    _shannon_bits,
    joint_entropy,
    parse_source_model,
)
from netmatch.errors import DocumentError
from netmatch.setfunc import is_copolymatroid
from netmatch.transmissibility import check

from conftest import (iter_nonempty_subsets, layered_network, marginal_pmf,
                      random_source_model, source_model_to_document)


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
        SourceModel(("a",), (2,), {(0,): Fraction(9, 10)})
    with pytest.raises(DocumentError, match="arity"):
        SourceModel(("a", "b"), (2, 2), {(0,): Fraction(1)})
    with pytest.raises(DocumentError, match="alphabet"):
        SourceModel(("a",), (2,), {(5,): Fraction(1)})
    with pytest.raises(DocumentError, match="negative"):
        SourceModel(("a",), (2,), {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})


def test_boolean_alphabet_sizes_and_symbols_rejected():
    with pytest.raises(DocumentError, match="alphabet sizes"):
        SourceModel(("a", "b"), (True, 2), {(0, 0): Fraction(1)})
    with pytest.raises(DocumentError, match="symbol True"):
        SourceModel(("a",), (2,), {(True,): Fraction(1, 2), (0,): Fraction(1, 2)})
    doc = {"sources": ["a", "b"], "alphabets": [True, 2],
           "pmf": [{"symbols": [0, 0], "p": "1/2"}, {"symbols": [0, 1], "p": "1/2"}]}
    with pytest.raises(DocumentError, match="alphabet sizes"):
        parse_source_model(json.dumps(doc))
    doc["alphabets"] = [2, 2]
    doc["pmf"][1]["symbols"] = [False, 1]
    with pytest.raises(DocumentError, match="symbol False"):
        parse_source_model(json.dumps(doc))


def test_a_model_that_lists_a_source_twice_is_rejected_everywhere():
    # The names match the network's as a set; estimate_error used to take
    # such a model and report every trial as an error.  No entry point can
    # be reached: the model is rejected when it is built.
    pmf = {(a, b, c): Fraction(1, 8) for a in range(2) for b in range(2) for c in range(2)}
    with pytest.raises(DocumentError, match="duplicate source name"):
        SourceModel(("s1", "s1", "s2"), (2, 2, 2), pmf)


@pytest.mark.parametrize("sizes, pmf, message", [
    ((2, 2), {(0,): Fraction(1)}, "arity"),
    ((2, 2), {(0, 5): Fraction(1, 2), (1, 1): Fraction(1, 2)}, "outside alphabet"),
    ((True, 2), {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}, "alphabet sizes"),
], ids=["arity", "symbol", "bool-size"])
def test_a_malformed_model_in_another_order_is_validated_before_it_is_aligned(
        sizes, pmf, message):
    # The butterfly lists s1, s2; this model lists s2, s1, so aligned()
    # would permute it: an IndexError is no verdict.  The model is
    # rejected when it is built, before any entry point can align it.
    with pytest.raises(DocumentError, match=message):
        SourceModel(("s2", "s1"), sizes, pmf)


@pytest.mark.parametrize("sources, pmf, message", [
    (("s1", 2), {(0, 0): Fraction(1)}, "source names must be strings"),
    (("s1", "s2"), {(0, 0): "1/2", (1, 1): "1/2"}, "is not a Fraction, int or float"),
    (("s1", "s2"), {(0, 0): Decimal("0.5"), (1, 1): Decimal("0.5")},
     "is not a Fraction, int or float"),
], ids=["int-name", "str-probability", "decimal-probability"])
def test_a_library_model_of_the_wrong_types_is_a_document_error(sources, pmf, message):
    # parse_source_model admits only these types; a model built in Python
    # used to end in TypeError from a comparison or a sum.
    with pytest.raises(DocumentError, match=message):
        SourceModel(sources, (2, 2), pmf)


def test_aligned_permutes_columns_and_keeps_the_pmf_entry_order():
    m = fixtures.dsbs_source(Fraction(11, 100))
    assert aligned(m, m.sources) is m
    swapped = aligned(m, m.sources[::-1])
    assert swapped.sources == m.sources[::-1]
    assert swapped.alphabet_sizes == m.alphabet_sizes[::-1]
    assert list(swapped.pmf.items()) == [(tup[::-1], p) for tup, p in m.pmf.items()]
    with pytest.raises(DocumentError, match="do not match"):
        aligned(m, ("x", "y"))
    # The constructor copies the pmf in the given entry order, not a sorted
    # one, and so does the permuted model built through it.
    given = {(1, 2): Fraction(1, 4), (0, 0): Fraction(1, 4), (1, 0): Fraction(1, 2)}
    m = SourceModel(("a", "b"), (2, 3), given)
    assert list(m.pmf.items()) == list(given.items())
    swapped = aligned(m, ("b", "a"))
    assert list(swapped.pmf.items()) == [((2, 1), Fraction(1, 4)), ((0, 0), Fraction(1, 4)),
                                         ((0, 1), Fraction(1, 2))]
    subsets = ({"a"}, {"b"}, {"a", "b"})
    joint, swapped_joint = entropy_profile(m).joint, entropy_profile(swapped).joint
    assert [swapped_joint(S) for S in subsets] == [joint(S) for S in subsets]


def test_a_built_model_cannot_change():
    given = {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    sources, sizes = ["a"], [2]
    m = SourceModel(sources, sizes, given)
    with pytest.raises(TypeError):
        m.pmf[(0,)] = Fraction(1)
    given[(0,)], sources[0], sizes[0] = Fraction(1), "b", 3
    assert (m.sources, m.alphabet_sizes, dict(m.pmf)) == (("a",), (2,), {
        (0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    assert pickle.loads(pickle.dumps(m)) == copy.deepcopy(m) == m


def test_float_pmf_tolerance():
    SourceModel(("a",), (2,), {(0,): 0.5, (1,): 0.5 + 1e-13})
    with pytest.raises(DocumentError):
        SourceModel(("a",), (2,), {(0,): 0.5, (1,): 0.4})


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


@pytest.mark.parametrize("symbol", [False, True, 0.0])
def test_a_symbol_equal_to_a_listed_integer_is_not_a_duplicate(symbol):
    # (0, False), (0, True) and (0, 0.0) equal (0, 0) or (0, 1) as dict
    # keys; the parser names the bad symbol as the model does, not a
    # duplicate entry.
    entries = [{"symbols": [a, b], "p": "1/4"} for a in (0, 1) for b in (0, 1)]
    doc = {"sources": ["a", "b"], "alphabets": [2, 2],
           "pmf": entries + [{"symbols": [0, symbol], "p": "0"}]}
    message = f"symbol {symbol!r} outside alphabet of size 2"
    with pytest.raises(DocumentError, match=f"^{message}$"):
        parse_source_model(json.dumps(doc))
    with pytest.raises(DocumentError, match=f"^{message}$"):
        SourceModel(("a", "b"), (2, 2), {(0, symbol): 1})


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
    # Twenty models of 1-4 sources, then one each of 5-8 sources over bits,
    # so both routes of the profile run while the marginals stay cheap.
    rng = random.Random(31 if rational else 32)
    for i in range(24):
        k = rng.randint(1, 4) if i < 20 else i - 15
        sources = [f"s{j}" for j in range(k)]
        m = random_source_model(rng, sources, max_alphabet=4 if k <= 4 else 2,
                                rational=rational)
        ep = entropy_profile(m)
        for S in iter_nonempty_subsets(m.sources):
            assert ep.joint(S).hex() == joint_entropy(m, S).hex()
            if rational:
                direct = _shannon_bits(marginal_pmf(m, S).values())
                assert ep.joint(S).hex() == direct.hex()


def _lattice_model(rng: random.Random, k: int, kind: str, max_alphabet: int) -> SourceModel:
    """A seeded model that varies what the entropy routes must reproduce:
    alphabets of 1 to ``max_alphabet`` symbols, dense or sparse support,
    explicit zero-probability entries and shuffled entry order.  ``kind``
    is "rational", "float" (den below 2^63 unless some probability's last
    bit is) or "tiny" (a float pmf with an entry of 2^-80, so den reaches
    2^63)."""
    tiny = kind == "tiny"
    sizes = tuple(rng.randint(1 + (tiny and i == 0), max_alphabet) for i in range(k))
    tuples = list(itertools.product(*(range(a) for a in sizes)))
    if rng.random() < 0.4:
        tuples = rng.sample(tuples, max(1 + tiny, len(tuples) // rng.randint(2, 6)))
    rng.shuffle(tuples)
    weights = [rng.randint(0 if rng.random() < 0.5 else 1, 8) for _ in tuples]
    weights[0] *= not tiny  # the first entry holds the tiny mass
    if not any(weights):
        weights[-1] = 1
    total = sum(weights)
    if kind == "rational":
        pmf = {t: Fraction(w, total) for t, w in zip(tuples, weights)}
    else:
        pmf = {t: w / total for t, w in zip(tuples, weights)}
        if tiny:
            pmf[tuples[0]] = 2.0 ** -80
    return SourceModel(tuple(f"s{i}" for i in range(k)), sizes, pmf)


def _fits_int64(m: SourceModel) -> bool:
    weights, den = _integer_weights(m)
    return max(den, sum(weights.values())) < 2**63


@pytest.mark.parametrize("k", range(1, 11))
def test_engine_matches_the_dict_walk_bitwise(k):
    # The engine is run at every k, dispatched or not; entropy_profile,
    # whichever route it takes, must give the same bits too.
    rng = random.Random(400 + k)
    max_alphabet = 4 if k <= 5 else 3 if k <= 7 else 2
    engine_runs = {"rational": 0, "float": 0}
    for kind in ("rational", "float", "tiny") * (6 if k <= 7 else 4):
        m = _lattice_model(rng, k, kind, max_alphabet)
        weights, den = _integer_weights(m)
        expected = [h.hex() for h in _joint_by_dict(weights, den, k)]
        assert [h.hex() for h in entropy_profile(m).joint.values] == expected
        if _fits_int64(m):
            got = _joint_by_tensor(weights, den, m.alphabet_sizes)
            assert [h.hex() for h in got] == expected
            engine_runs[kind] += 1
    assert engine_runs["rational"] >= 2 and engine_runs["float"] >= 1


def test_engine_matches_the_dict_walk_at_k12():
    m = random_source_model(random.Random(12), [f"s{i}" for i in range(12)], max_alphabet=2)
    weights, den = _integer_weights(m)
    expected = _joint_by_dict(weights, den, 12)
    got = _joint_by_tensor(weights, den, m.alphabet_sizes)
    assert [h.hex() for h in got] == [h.hex() for h in expected]


def _count_routes(monkeypatch) -> dict:
    calls = {"_joint_by_dict": 0, "_joint_by_tensor": 0}
    for name in calls:
        def counted(*args, _route=getattr(entropy, name), _name=name):
            calls[_name] += 1
            return _route(*args)
        monkeypatch.setattr(entropy, name, counted)
    return calls


def test_check_at_k8_never_enters_the_dict_walk(monkeypatch):
    # A work gate that timing noise cannot move: the benchmark's k=8 family
    # takes the engine, so the identity tests above run the code check runs.
    rng = random.Random(1)
    net = layered_network(rng, 8)
    m = random_source_model(rng, net.sources, max_alphabet=2)
    calls = _count_routes(monkeypatch)
    check(net, m)
    assert calls == {"_joint_by_dict": 0, "_joint_by_tensor": 1}


@pytest.mark.parametrize("name", ["den-2^63", "k4", "k5", "sparse", "cells"])
def test_entropy_profile_takes_the_dict_walk_where_the_engine_would_not_pay(monkeypatch, name):
    # Each model breaks exactly one of the engine's conditions.
    rng = random.Random(7)
    k = {"k4": 4, "k5": 5, "cells": 7}.get(name, 8)
    sources = [f"s{i}" for i in range(k)]
    if name == "den-2^63":
        while True:
            m = _lattice_model(rng, k, "tiny", 2)
            if all(a == 2 for a in m.alphabet_sizes):
                break
    elif name == "sparse":  # 5^8 cells for at most 40 entries
        keys = {tuple(rng.randrange(4) for _ in sources) for _ in range(40)}
        m = SourceModel(sources, (4,) * k, {t: Fraction(1, len(keys)) for t in keys})
    elif name == "cells":  # 8^6 * 9 cells, past the budget
        keys = {tuple(rng.randrange(a) for a in (7,) * 6 + (8,)) for _ in range(2500)}
        m = SourceModel(sources, (7,) * 6 + (8,), {t: Fraction(1, len(keys)) for t in keys})
    else:
        m = random_source_model(rng, sources, max_alphabet=2)
    cells = math.prod(a + 1 for a in m.alphabet_sizes)
    broken = {"den-2^63": not _fits_int64(m),
              "sources": k < entropy._TENSOR_MIN_SOURCES,
              "sparse": cells > entropy._TENSOR_SPARSITY * len(m.pmf) << k,
              "cells": cells > entropy._TENSOR_CELLS}
    assert [reason for reason, fails in broken.items() if fails] == [
        "sources" if name in ("k4", "k5") else name]
    calls = _count_routes(monkeypatch)
    entropy_profile(m)
    assert calls == {"_joint_by_dict": 1, "_joint_by_tensor": 0}


@pytest.mark.parametrize("k", [2, 6])
def test_float_dust_below_zero_is_clipped_on_both_routes(k):
    # The pmf sums to 1 + 2^-52 within PMF_TOLERANCE, so a point-mass
    # marginal has p > 1 and a float entropy of about -3.2e-16.
    sources = tuple(f"s{i}" for i in range(k))
    m = SourceModel(sources, (1, 2) + (1,) * (k - 2),
                    {(0,) * k: 0.5, (0, 1) + (0,) * (k - 2): 0.5000000000000002})
    weights, den = _integer_weights(m)
    assert _shannon_bits([sum(weights.values()) / den]) < 0
    joint = entropy_profile(m).joint.values
    assert joint == tuple(_joint_by_dict(weights, den, k))
    assert joint == tuple(_joint_by_tensor(weights, den, m.alphabet_sizes))
    for mask in range(1, 1 << k):
        h = joint_entropy(m, [s for p, s in enumerate(sources) if mask >> p & 1])
        assert joint[mask] == h
        assert h == 0.0 if mask & 2 == 0 else h > 0.99


def test_nan_probability_rejected():
    doc = ('{"sources": ["a", "b"], "alphabets": [2, 2], "pmf": ['
           '{"symbols": [0, 0], "p": NaN}, {"symbols": [1, 1], "p": 1}]}')
    with pytest.raises(DocumentError, match="non-finite"):
        parse_source_model(doc)


_ENTRIES = [[a, b, c] for a in range(2) for b in range(2) for c in range(2)]

#: One entry of a valid three-source document made bad, and the message
#: the entry-by-entry checks give; ``{t}`` is the entry's symbol tuple.
_BAD_ENTRIES = {
    "range": (lambda e: e.update(symbols=[2] + e["symbols"][1:]),
              "symbol 2 outside alphabet of size 2"),
    "bool-symbol": (lambda e: e.update(symbols=e["symbols"][:2] + [e["symbols"][2] == 1]),
                    "symbol {last} outside alphabet of size 2"),
    "float-symbol": (lambda e: e.update(symbols=[0.0] + e["symbols"][1:]),
                     "symbol 0.0 outside alphabet of size 2"),
    "arity": (lambda e: e.update(symbols=e["symbols"][1:]), "symbol tuple {short} has wrong arity"),
    "nested": (lambda e: e.update(symbols=[[0]] + e["symbols"][1:]),
               "pmf entry symbols must be a list of scalars: {entry}"),
    "missing-p": (lambda e: e.pop("p"), "malformed pmf entry: {entry}"),
    "negative": (lambda e: e.update(p="-1/8"), "negative probability for {t}"),
    "zero-denominator": (lambda e: e.update(p="1/0"), "pmf entry {t}: not a rational value: '1/0'"),
    "bool-p": (lambda e: e.update(p=True), "pmf entry {t}: not a probability: True"),
    "float-p": (lambda e: e.update(p=0.5), "pmf sums to 1.375, not 1 within 1e-12"),
    "sum": (lambda e: e.update(p="1/4"), "pmf sums to 9/8, not 1"),
}


@pytest.mark.parametrize("position", [0, 3, 7])
@pytest.mark.parametrize("name", sorted(_BAD_ENTRIES))
def test_one_bad_entry_keeps_its_message_wherever_it_sits(name, position):
    # The parser and the model first read a document in bulk; one bad entry
    # sends both back to the entry-by-entry checks and their message.
    corrupt, message = _BAD_ENTRIES[name]
    entries = [{"symbols": list(t), "p": "1/8"} for t in _ENTRIES]
    corrupt(entries[position])
    entry = entries[position]
    message = message.format(t=tuple(_ENTRIES[position]), entry=entry,
                             short=tuple(entry["symbols"]), last=entry["symbols"][-1])
    doc = {"sources": ["a", "b", "c"], "alphabets": [2, 2, 2], "pmf": entries}
    with pytest.raises(DocumentError) as caught:
        parse_source_model(json.dumps(doc))
    assert str(caught.value) == message


def test_a_float_pmf_keeps_its_values_and_weights():
    floats = {tuple(t): 0.125 for t in _ENTRIES}
    m = SourceModel(("a", "b", "c"), (2, 2, 2), floats)
    assert not m.is_rational() and dict(m.pmf) == floats
    assert m.integer_weights == ({t: 1 for t in floats}, 8)
    with pytest.raises(DocumentError, match=r"^pmf sums to 1\.125, not 1 within 1e-12$"):
        SourceModel(("a", "b", "c"), (2, 2, 2), {**floats, (0, 0, 0): 0.25})


def test_a_float_pmf_sum_is_the_exact_sum_rounded_once():
    # Left to right in floats, 0.1 + 0.2 + 0.3 is 0.6000000000000001; the
    # exact sum of the three binary fractions rounds to 0.6.
    with pytest.raises(DocumentError, match=r"^pmf sums to 0\.6, not 1 within 1e-12$"):
        SourceModel(("a",), (3,), {(0,): 0.1, (1,): 0.2, (2,): 0.3})


def test_a_float_pmf_whose_sum_passes_the_float_range_is_a_document_error():
    # A rational entry of 10^400 next to a float one: the sum prints as inf.
    with pytest.raises(DocumentError, match=r"^pmf sums to inf, not 1 within 1e-12$"):
        SourceModel(("a",), (2,), {(0,): Fraction(10**400), (1,): 0.0})
