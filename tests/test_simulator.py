"""Random-binning codes, propagation, typicality decoding, Monte-Carlo runs."""

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import random_source_model, reference_candidates, reference_estimate_error

from netmatch import fixtures, simulator
from netmatch.entropy import SourceModel
from netmatch.errors import DocumentError, LimitError
from netmatch.graph import Edge, Network
from netmatch.scalars import INF
from netmatch.simulator import (
    _CandidateSpace,
    build_code,
    butterfly_xor,
    decode,
    estimate_error,
    exhaustive_xor_check,
    floor_pow2,
    propagate,
)

ALPHABETS = {"s1": 2, "s2": 2}


def test_floor_pow2_exact_values():
    assert floor_pow2(Fraction(21, 5)) == 18  # 2^4.2
    assert floor_pow2(Fraction(3)) == 8
    assert floor_pow2(Fraction(0)) == 1
    assert floor_pow2(Fraction(1, 2)) == 1
    assert floor_pow2(Fraction(48, 5)) == 776


def _integer_floor_pow2(exponent):
    """The largest m with m**q <= 2**p: integer bisection on both powers."""
    p, q = exponent.numerator, exponent.denominator
    lo, hi = 1, 1 << (p // q + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**q <= 1 << p:
            lo = mid
        else:
            hi = mid - 1
    return lo


def test_floor_pow2_matches_integer_powers_at_small_denominators():
    rng = random.Random(11)
    exponents = [Fraction(rng.randint(0, 62 * q), q) for q in rng.choices(range(1, 61), k=1000)]
    exponents += [Fraction(k) for k in range(63)]
    for x in exponents:
        assert floor_pow2(x) == _integer_floor_pow2(x), x


def test_floor_pow2_forms_no_power_of_two():
    # Numerators of 12, 24 and 4301 digits: 1 << p would need 17.5 GB or
    # could not be formed at all.
    assert floor_pow2(Fraction(139983191633, 10**11)) == 2
    assert floor_pow2(2 * (Fraction(5, 4) - Fraction(1, 10**23 + 1))) == 5
    tiny = Fraction(1, 10**4300)
    assert floor_pow2(3 + tiny) == 8  # just above a power of two
    assert floor_pow2(3 - tiny) == 7  # just below one
    assert floor_pow2(62 - tiny) == (1 << 62) - 1
    with pytest.raises(LimitError, match="2\\^62"):
        floor_pow2(Fraction(10**4300))


def test_index_sizes_butterfly():
    code = build_code(fixtures.butterfly_network(), ALPHABETS, 4,
                      Fraction(1, 10), Fraction(1, 20), seed=0)
    assert set(code.index_sizes.values()) == {18}


def test_index_size_clamps_to_one():
    net = Network(
        nodes=("s", "t"),
        edges=(Edge("s", "t", Fraction(0)),),
        sources=("s",),
        sinks=("t",),
    )
    tau = Fraction(1, 10**6)
    code = build_code(net, {"s": 2}, 1, tau, tau / 2, seed=0)
    assert code.index_sizes[0] == 1


def test_build_code_validates_parameters():
    net = fixtures.butterfly_network()
    with pytest.raises(ValueError, match="delta"):
        build_code(net, ALPHABETS, 4, Fraction(1, 20), Fraction(1, 10), seed=0)
    with pytest.raises(ValueError, match="block length"):
        build_code(net, ALPHABETS, 0, Fraction(1, 4), Fraction(1, 20), seed=0)
    unnormalized = Network(
        nodes=("a", "s", "t"),
        edges=(Edge("a", "s", Fraction(1)), Edge("s", "t", Fraction(1))),
        sources=("s",),
        sinks=("t",),
    )
    with pytest.raises(ValueError, match="normalized"):
        build_code(unnormalized, {"s": 2}, 2, Fraction(1, 4), Fraction(1, 20), seed=0)


def test_build_code_table_size_guard():
    with pytest.raises(LimitError, match="domain"):
        build_code(fixtures.butterfly_network(), ALPHABETS, 8,
                   Fraction(1, 4), Fraction(1, 20), seed=0, max_table_entries=1000)
    # 2^20000 source blocks: more digits than str(int) converts.
    with pytest.raises(LimitError, match="domain"):
        build_code(fixtures.butterfly_network(), ALPHABETS, 20000,
                   Fraction(1, 4), Fraction(1, 20), seed=0)


def test_same_seed_means_same_code():
    net = fixtures.butterfly_network()
    a = build_code(net, ALPHABETS, 4, Fraction(1, 4), Fraction(1, 20), seed=99)
    b = build_code(net, ALPHABETS, 4, Fraction(1, 4), Fraction(1, 20), seed=99)
    assert a.index_sizes == b.index_sizes
    for k in a.tables:
        assert np.array_equal(a.tables[k], b.tables[k])
    c = build_code(net, ALPHABETS, 4, Fraction(1, 4), Fraction(1, 20), seed=100)
    assert any(not np.array_equal(a.tables[k], c.tables[k]) for k in a.tables)


def test_zero_capacity_edge_always_carries_index_one():
    net = Network(
        nodes=("s", "m", "t"),
        edges=(Edge("s", "t", Fraction(0)), Edge("s", "m", Fraction(2)),
               Edge("m", "t", Fraction(2))),
        sources=("s",),
        sinks=("t",),
    )
    code = build_code(net, {"s": 2}, 2, Fraction(1, 4), Fraction(1, 20), seed=5)
    for x in ((0,), (1,)), ((0,), (0,)), ((1,), (1,)):
        z = propagate(code, list(x))
        assert z["t"][0] == 1


def test_propagation_locality():
    # s2 has no path to t1, so z_t1 ignores the second coordinate.
    net = Network(
        nodes=("s1", "s2", "t1", "t2"),
        edges=(Edge("s1", "t1", Fraction(1)), Edge("s2", "t2", Fraction(1)),
               Edge("s1", "t2", Fraction(1))),
        sources=("s1", "s2"),
        sinks=("t1", "t2"),
    )
    code = build_code(net, ALPHABETS, 3, Fraction(1, 4), Fraction(1, 20), seed=3)
    base = propagate(code, [(0, 0), (1, 0), (0, 0)])
    flipped = propagate(code, [(0, 1), (1, 1), (0, 1)])
    assert base["t1"] == flipped["t1"]
    assert base["t2"] != flipped["t2"] or True  # t2 may collide; t1 must not differ


def test_decode_recovers_through_lossless_edge():
    net = Network(
        nodes=("s", "t"),
        edges=(Edge("s", "t", INF),),
        sources=("s",),
        sinks=("t",),
    )
    m = SourceModel(("s",), (2,), {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    code = build_code(net, {"s": 2}, 3, Fraction(1, 4), Fraction(1, 20), seed=1)
    x = [(0,), (1,), (1,)]
    z = propagate(code, x)
    decoded = decode(code, m, "t", z["t"], lam=3 / 32)
    assert decoded == x
    # Substitution: the decoded block propagates to the same reception.
    assert propagate(code, decoded)["t"] == z["t"]


def test_decode_fails_when_all_indices_collapse():
    net = Network(
        nodes=("s", "t"),
        edges=(Edge("s", "t", Fraction(0)),),
        sources=("s",),
        sinks=("t",),
    )
    m = SourceModel(("s",), (2,), {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    tau = Fraction(1, 10**6)
    code = build_code(net, {"s": 2}, 2, tau, tau / 2, seed=1)
    z = propagate(code, [(0,), (1,)])
    assert decode(code, m, "t", z["t"], lam=0.5) is None


def test_decoder_failures_are_genuine_collisions():
    # Exhaustive at n=2: whenever the decoder misses a typical block, some
    # other typical block is received identically at that sink.
    net = fixtures.butterfly_network()
    m = fixtures.uniform_pair_source()
    code = build_code(net, ALPHABETS, 2, Fraction(1, 4), Fraction(1, 20), seed=21)
    lam = 3 / 32
    blocks = [
        [(a, b), (c, d)]
        for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)
    ]
    receptions = {tuple(map(tuple, x)): propagate(code, x) for x in blocks}
    misses = 0
    for x in blocks:
        z = receptions[tuple(map(tuple, x))]
        for t in ("t1", "t2"):
            decoded = decode(code, m, t, z[t], lam)
            if decoded == x:
                continue
            misses += 1
            collisions = [
                y for y in blocks
                if y != x and receptions[tuple(map(tuple, y))][t] == z[t]
            ]
            assert collisions, "decoder declared an error without a collision"
    assert misses > 0  # at n=2 the tight instance must show some errors


def test_butterfly_xor_examples():
    x1 = (0, 1, 1, 0)
    x2 = (1, 1, 0, 0)
    out = butterfly_xor(x1, x2)
    assert out["t1"] == (x1, x2)
    assert out["t2"] == (x1, x2)
    same = butterfly_xor((1, 0, 1), (1, 0, 1))
    assert same["t1"] == same["t2"] == ((1, 0, 1), (1, 0, 1))


def test_butterfly_xor_validates():
    with pytest.raises(ValueError, match="length"):
        butterfly_xor((0, 1), (0,))
    with pytest.raises(ValueError, match="bit"):
        butterfly_xor((0, 2), (0, 1))


def test_butterfly_xor_exhaustive_small():
    assert exhaustive_xor_check(4) == 0


def test_estimate_error_rejects_zero_trials():
    with pytest.raises(ValueError, match="trial"):
        estimate_error(fixtures.butterfly_network(), fixtures.uniform_pair_source(),
                       2, Fraction(1, 4), Fraction(1, 20), 3 / 32, trials=0, seed=0)


def test_estimate_error_document_is_deterministic():
    net = fixtures.butterfly_network()
    m = fixtures.uniform_pair_source()
    kwargs = dict(trials=40, seed=1234)
    a = estimate_error(net, m, 3, Fraction(1, 4), Fraction(1, 20), 3 / 32, **kwargs)
    b = estimate_error(net, m, 3, Fraction(1, 4), Fraction(1, 20), 3 / 32, **kwargs)
    assert a.to_json() == b.to_json()
    assert set(a.per_sink) == {"t1", "t2"}
    for stats in a.per_sink.values():
        assert 0.0 <= stats.rate <= 1.0
        assert stats.half_width >= 0.0


def test_estimate_error_fixed_code_deterministic():
    net = fixtures.butterfly_network()
    m = fixtures.uniform_pair_source()
    a = estimate_error(net, m, 3, Fraction(1, 4), Fraction(1, 20), 3 / 32,
                       trials=40, seed=9, fixed_code=True)
    b = estimate_error(net, m, 3, Fraction(1, 4), Fraction(1, 20), 3 / 32,
                       trials=40, seed=9, fixed_code=True)
    assert a.to_json() == b.to_json()
    assert a.fixed_code


def _z_gap(p_hi: float, p_lo: float, trials: int) -> float:
    se = math.sqrt(p_hi * (1 - p_hi) / trials + p_lo * (1 - p_lo) / trials)
    return (p_hi - p_lo) / se if se > 0 else float("inf")


def test_error_rate_decreases_with_blocklength_given_margin():
    # Capacities 5/4 leave at least 0.25 bits of margin on every subset;
    # the empirical error must drop from n=2 to n=6 at 95% confidence.
    net = fixtures.scaled_butterfly(Fraction(5, 4))
    m = fixtures.uniform_pair_source()
    trials = 300
    low = estimate_error(net, m, 2, Fraction(1, 4), Fraction(1, 20), 3 / 32,
                         trials=trials, seed=77)
    high = estimate_error(net, m, 6, Fraction(1, 4), Fraction(1, 20), 3 / 32,
                          trials=trials, seed=77)
    for t in ("t1", "t2"):
        p2 = low.per_sink[t].rate
        p6 = high.per_sink[t].rate
        assert p6 < p2
        assert _z_gap(p2, p6, trials) > 1.645


PINNED = Path(__file__).parent / "data" / "estimate_error"
PINNED_INSTANCES = {
    # name: (network, source model, typicality slack)
    "butterfly": (fixtures.butterfly_network, fixtures.uniform_pair_source, Fraction(3, 32)),
    "halved": (lambda: fixtures.scaled_butterfly(Fraction(1, 2)),
               fixtures.uniform_pair_source, Fraction(3, 32)),
    "dsbs": (fixtures.butterfly_network, lambda: fixtures.dsbs_source(Fraction(11, 100)),
             Fraction(3, 32)),
    # The three above err on every trial at some sink or all; this one
    # decodes most blocks of a correlated source, so it pins the scan's hits.
    "dsbs_wide": (lambda: fixtures.scaled_butterfly(Fraction(5, 4)),
                  lambda: fixtures.dsbs_source(Fraction(11, 100)), Fraction(1, 2)),
}


@pytest.mark.parametrize("mode", ["fresh", "fixed"])
@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("name", sorted(PINNED_INSTANCES))
def test_estimate_error_documents_are_pinned(name, n, mode):
    make_net, make_model, lam = PINNED_INSTANCES[name]
    result = estimate_error(make_net(), make_model(), n, Fraction(1, 4), Fraction(1, 20), lam,
                            trials=40, seed=7, fixed_code=mode == "fixed")
    assert result.to_json() + "\n" == (PINNED / f"{name}_n{n}_{mode}.json").read_text()


def three_source_network() -> Network:
    """Sources a, b, c; relay r hears a and b; sink t1 hears r, c and a,
    sink t2 hears r and c (through a lossless edge)."""
    edges = (Edge("a", "r", Fraction(1)), Edge("b", "r", Fraction(1, 2)),
             Edge("r", "t1", Fraction(3, 2)), Edge("c", "t1", Fraction(1)),
             Edge("a", "t1", Fraction(1, 4)), Edge("r", "t2", Fraction(1)),
             Edge("c", "t2", INF))
    return Network(nodes=("a", "b", "c", "r", "t1", "t2"), edges=edges,
                   sources=("a", "b", "c"), sinks=("t1", "t2"))


def test_estimate_error_matches_full_reencode_reference():
    instances = {name: (make_net(), make_model())
                 for name, (make_net, make_model, _) in PINNED_INSTANCES.items()}
    instances["three"] = (three_source_network(),
                          random_source_model(random.Random(11), ("a", "b", "c"), max_alphabet=2))
    configs = 0
    empty = 0
    for name, (net, model) in sorted(instances.items()):
        for n in range(1, 6 if name == "three" else 8):
            for lam in (0.05, Fraction(3, 32), Fraction(1, 4), Fraction(1, 2)):
                empty += len(_CandidateSpace(net, model, n, lam).ids) == 0
                for fixed in (False, True):
                    args = (net, model, n, Fraction(1, 4), Fraction(1, 20), lam)
                    kwargs = dict(trials=12, seed=configs, fixed_code=fixed)
                    assert (estimate_error(*args, **kwargs).to_json()
                            == reference_estimate_error(*args, **kwargs).to_json()), (name, n, lam)
                    configs += 1
    assert configs >= 200
    assert empty >= 4


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    inner = getattr(simulator, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(simulator, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(PINNED_INSTANCES))
def test_fixed_code_encodes_the_candidate_space_once(monkeypatch, name):
    make_net, make_model, lam = PINNED_INSTANCES[name]
    encodes = _count_calls(monkeypatch, "_encode")
    builds = _count_calls(monkeypatch, "build_code")
    estimate_error(make_net(), make_model(), 6, Fraction(1, 4), Fraction(1, 20), lam,
                   trials=40, seed=7, fixed_code=True)
    assert (len(builds), len(encodes)) == (1, 1)


def test_fresh_code_is_built_only_for_typical_blocks(monkeypatch):
    net = fixtures.butterfly_network()
    m = fixtures.dsbs_source(Fraction(11, 100))
    n, lam, trials, seed = 8, 3 / 32, 40, 3
    space = _CandidateSpace(net, m, n, lam)
    typical = set(space.ids.tolist())
    later = sum(space.draw(np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(trial, 1)))) in typical
        for trial in range(1, trials))
    assert 0 < later < trials - 1
    encodes = _count_calls(monkeypatch, "_encode")
    builds = _count_calls(monkeypatch, "build_code")
    estimate_error(net, m, n, Fraction(1, 4), Fraction(1, 20), lam, trials=trials, seed=seed)
    assert len(builds) == len(encodes) == 1 + later


def test_empty_typical_set_errs_everywhere_without_hiding_limits():
    net = fixtures.butterfly_network()
    m = fixtures.dsbs_source(Fraction(11, 100))
    n, tau, delta, lam = 4, Fraction(1, 4), Fraction(1, 20), 1e-9
    assert len(_CandidateSpace(net, m, n, lam).ids) == 0
    for fixed in (False, True):
        with pytest.raises(LimitError, match="input domain"):
            estimate_error(net, m, n, tau, delta, lam, trials=5, seed=1,
                           fixed_code=fixed, max_table_entries=8)
        result = estimate_error(net, m, n, tau, delta, lam, trials=5, seed=1, fixed_code=fixed)
        assert {t: s.rate for t, s in result.per_sink.items()} == {"t1": 1.0, "t2": 1.0}
    code = build_code(net, ALPHABETS, n, tau, delta, seed=1)
    z = propagate(code, [(0, 0)] * n)
    assert decode(code, m, "t1", z["t1"], lam) is None


def test_decode_validates_the_model_on_every_call():
    # Sizes and symbols equal to valid ones under == (2.0 == 2, True == 1)
    # are still rejected after a valid model with the same values decoded.
    net = fixtures.butterfly_network()
    m = fixtures.uniform_pair_source()
    code = build_code(net, ALPHABETS, 2, Fraction(1, 4), Fraction(1, 20), seed=21)
    x = [(0, 1), (1, 0)]
    z = propagate(code, x)
    decode(code, m, "t1", z["t1"], 1 / 4)
    pmf = dict(m.pmf)
    bad_symbol = {(0, True) if tup == (0, 1) else tup: p for tup, p in pmf.items()}
    for bad in (SourceModel(m.sources, (2.0, 2), pmf),
                SourceModel(m.sources, m.alphabet_sizes, bad_symbol)):
        with pytest.raises(DocumentError):
            decode(code, bad, "t1", z["t1"], 1 / 4)


def test_candidate_space_matches_reference():
    # 1 to 3 sources with alphabets of 1 to 3 symbols, rational and float
    # pmfs; every third model lists its sources in another order than the
    # network does.
    rng = random.Random(2026)
    mixed = 0
    for case in range(240):
        names = tuple(f"s{j}" for j in range(rng.randint(1, 3)))
        listed = tuple(rng.sample(names, len(names))) if case % 3 == 0 else names
        model = random_source_model(rng, listed, min_alphabet=1, rational=case % 2 == 0)
        joint = math.prod(model.alphabet_sizes)
        n = rng.randint(1, 4)
        while n > 1 and joint**n > 1000:
            n -= 1
        lam = rng.choice([0.05, Fraction(3, 32), Fraction(1, 4), Fraction(1, 2)])
        net = Network(nodes=(*names, "t"), edges=tuple(Edge(s, "t", Fraction(1)) for s in names),
                      sources=names, sinks=("t",))
        space = _CandidateSpace(net, model, n, lam)
        blocks, codes, typical = reference_candidates(names, model, n, lam)
        assert [space.sequence_of(J) for J in range(space.total)] == blocks
        every = space._codes(space._digits(np.arange(space.total)))
        for s in names:
            assert np.array_equal(every[s], codes[s])
            assert np.array_equal(space.codes[s], np.array(codes[s], dtype=np.int64)[typical])
        assert np.array_equal(space.ids, np.flatnonzero(typical))
        mixed += 0 < sum(typical) < len(typical)
    assert mixed >= 60
