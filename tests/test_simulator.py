"""Random-binning codes, propagation, typicality decoding, Monte-Carlo runs."""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    random_source_model,
    raw_instances,
    reference_bin,
    reference_candidates,
    reference_codes,
    reference_encode,
    reference_estimate_error,
    reference_match,
    typical_ids,
)

from netmatch import fixtures, simulator
from netmatch.entropy import SourceModel
from netmatch.errors import DocumentError, LimitError
from netmatch.graph import Edge, Network
from netmatch.scalars import INF, is_inf
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


def test_build_code_table_size_guard():
    # A relay hearing two 2^40.2-index edges has a 2^80-entry input domain.
    relay = Network(
        nodes=("s1", "s2", "r", "t"),
        edges=(Edge("s1", "r", Fraction(40)), Edge("s2", "r", Fraction(40)),
               Edge("r", "t", Fraction(1))),
        sources=("s1", "s2"),
        sinks=("t",),
    )
    with pytest.raises(LimitError, match="input domain of node 'r'"):
        build_code(relay, ALPHABETS, 1, Fraction(1, 4), Fraction(1, 20), seed=0)
    # 2^20000 source blocks: more digits than str(int) converts.
    with pytest.raises(LimitError, match="domain"):
        build_code(fixtures.butterfly_network(), ALPHABETS, 20000,
                   Fraction(1, 4), Fraction(1, 20), seed=0)


def test_a_source_without_out_edges_has_its_sequence_codes_checked():
    # Sink k is a source with no out-edges: 2^70 sequence codes pass int64
    # although k feeds no edge, and build_code, not propagate, says so.
    net = Network(("s", "k"), (Edge("s", "k", Fraction(0)),), ("s", "k"), ("k",))
    with pytest.raises(LimitError, match="input domain of node 'k'"):
        build_code(net, {"s": 1, "k": 2}, 70, Fraction(1, 4), Fraction(1, 20), seed=0)
    code = build_code(net, {"s": 1, "k": 2}, 62, Fraction(1, 4), Fraction(1, 20), seed=0)
    assert propagate(code, [(0, 1)] * 62)["k"][-1] == 2**62  # k's code 2^62 - 1, 1-based


def _bins_over_domains(code) -> dict:
    """Every finite edge's bin of each input in its tail's domain."""
    return {k: simulator._bin(code, k, np.arange(code.domains[code.net.edges[k].tail]))
            for k in code.keys}


def test_same_seed_means_same_code():
    net = fixtures.butterfly_network()
    a = build_code(net, ALPHABETS, 4, Fraction(1, 4), Fraction(1, 20), seed=99)
    b = build_code(net, ALPHABETS, 4, Fraction(1, 4), Fraction(1, 20), seed=99)
    assert a.index_sizes == b.index_sizes
    bins_a, bins_b = _bins_over_domains(a), _bins_over_domains(b)
    assert sorted(bins_a) == sorted(bins_b) == list(range(len(net.edges)))
    for k in bins_a:
        assert np.array_equal(bins_a[k], bins_b[k])
    c = build_code(net, ALPHABETS, 4, Fraction(1, 4), Fraction(1, 20), seed=100)
    bins_c = _bins_over_domains(c)
    assert any(not np.array_equal(bins_a[k], bins_c[k]) for k in bins_a)


def test_long_blocks_build_and_propagate():
    # At n=40 a source has 2^40 blocks, and the halved butterfly's relay u
    # hears two 2^28-index edges (a 2^56-entry domain); no table over
    # either is formed.  The unit butterfly's u would hear 2^96 inputs.
    net = fixtures.scaled_butterfly(Fraction(1, 2))
    n, tau, delta = 40, Fraction(1, 4), Fraction(1, 20)
    rng = random.Random(40)
    x = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(n)]
    a = build_code(net, ALPHABETS, n, tau, delta, seed=4)
    assert a.domains["u"] == 1 << 56
    z = propagate(a, x)
    assert z == propagate(build_code(net, ALPHABETS, n, tau, delta, seed=4), x)
    block = {s: int("".join(str(step[pos]) for step in x), 2) for pos, s in enumerate(net.sources)}
    assert z == {t: tuple(v + 1 for v in want) for t, want in reference_encode(a, block).items()}
    with pytest.raises(LimitError, match="input domain of node 'u'"):
        build_code(fixtures.butterfly_network(), ALPHABETS, n, tau, delta, seed=4)


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


def _butterfly_code_at_n2():
    return build_code(fixtures.butterfly_network(), ALPHABETS, 2,
                      Fraction(1, 4), Fraction(1, 20), seed=21)


@pytest.mark.parametrize("x", [[(0, 1, 1), (1, 0, 0)], [(0,), (1,)]], ids=["three", "one"])
def test_propagate_rejects_a_symbol_tuple_of_the_wrong_arity(x):
    # On two sources, three coordinates used to be cut to two and one
    # raised IndexError.
    with pytest.raises(ValueError, match="one symbol per source"):
        propagate(_butterfly_code_at_n2(), x)


def test_decode_rejects_an_index_outside_its_index_set():
    # Index 0 is outside 1..size; it used to read as a decoding error.
    code = _butterfly_code_at_n2()
    m = fixtures.uniform_pair_source()
    size = code.index_sizes[code.net.in_edges("t1")[1]]
    for z in ((0, 1), (1, size + 1)):
        with pytest.raises(ValueError, match="outside"):
            decode(code, m, "t1", z, 3 / 32)


def test_a_sink_that_is_a_source_receives_its_own_sequence_code():
    # k's reception ends in its own sequence code, 1-based, whose index
    # set has |X_k|^n entries; that digit alone decodes k's block.
    net = Network(("k", "t"), (Edge("k", "t", Fraction(1)),), ("k",), ("k", "t"))
    m = SourceModel(("k",), (3,), {(a,): Fraction(1, 3) for a in range(3)})
    code = build_code(net, {"k": 3}, 2, Fraction(1, 4), Fraction(1, 20), seed=3)
    x = [(2,), (1,)]
    z = propagate(code, x)
    assert z["k"] == (2 * 3 + 1 + 1,)
    assert decode(code, m, "k", z["k"], 1 / 4) == x
    assert decode(code, m, "k", (9,), 1 / 4) == [(2,), (2,)]
    with pytest.raises(ValueError, match="outside 1..9"):
        decode(code, m, "k", (10,), 1 / 4)


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
                empty += _CandidateSpace(net, model, n, lam).count == 0
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
    draws = _count_calls(monkeypatch, "_draw_code")
    keys = _count_calls(monkeypatch, "_sink_keys")
    estimate_error(make_net(), make_model(), 6, Fraction(1, 4), Fraction(1, 20), lam,
                   trials=40, seed=7, fixed_code=True)
    assert (len(draws), len(encodes), len(keys)) == (1, 1, 1)


def test_fresh_code_is_built_only_for_typical_blocks(monkeypatch):
    net = fixtures.butterfly_network()
    m = fixtures.dsbs_source(Fraction(11, 100))
    n, lam, trials, seed = 8, 3 / 32, 40, 3
    space = _CandidateSpace(net, m, n, lam)
    typical = set(typical_ids(space).tolist())
    hits = [space.draw(np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(trial, 1)))) in typical
        for trial in range(trials)]
    # Trial 0 is atypical, and like every atypical trial it draws no code.
    assert not hits[0] and 0 < sum(hits) < trials
    encodes = _count_calls(monkeypatch, "_encode")
    layouts = _count_calls(monkeypatch, "_code_layout")
    draws = _count_calls(monkeypatch, "_draw_code")
    estimate_error(net, m, n, Fraction(1, 4), Fraction(1, 20), lam, trials=trials, seed=seed)
    assert (len(layouts), len(draws), len(encodes)) == (1, sum(hits), 0)


def test_runs_of_many_blocks_match_the_reference(monkeypatch):
    # Uniform bits make all 16 blocks of the n=2 butterfly typical, so 200
    # fresh trials fill twelve blocks of _BLOCK and a last one of eight, and
    # a fixed code answers 200 trials from one set of keys.
    net, model = fixtures.butterfly_network(), fixtures.uniform_pair_source()
    args = (net, model, 2, Fraction(1, 4), Fraction(1, 20), Fraction(1, 2))
    space = _CandidateSpace(net, model, 2, Fraction(1, 2))
    assert space.ids is None and space.count == space.total == 16
    trials = 200
    for fixed in (False, True):
        want = reference_estimate_error(*args, trials=trials, seed=5, fixed_code=fixed).to_json()
        narrows = _count_calls(monkeypatch, "_narrow")
        assert estimate_error(*args, trials=trials, seed=5, fixed_code=fixed).to_json() == want
        assert len(narrows) == (0 if fixed else -(-trials // simulator._BLOCK))


def test_blocks_mixed_with_atypical_trials_match_the_reference(monkeypatch):
    # DSBS at n=6: 38 of 46 trials are typical, interleaved with atypical
    # ones, so the typical trials fill two blocks of _BLOCK and a last one
    # of six, flushed at the last trial, which is atypical, in both modes.
    p = Fraction(11, 100)
    net, model = fixtures.dsbs_network(p), fixtures.dsbs_source(p)
    lam, trials, seed = Fraction(1, 2), 46, 0
    space = _CandidateSpace(net, model, 6, lam)
    typical = set(typical_ids(space).tolist())
    hits = [space.draw(np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(trial, 1)))) in typical
        for trial in range(trials)]
    assert sum(hits) == 38 and not hits[-1]
    for tau in (Fraction(1, 10), Fraction(1, 4)):
        args = (net, model, 6, tau, tau / 5, lam)
        for fixed in (False, True):
            want = reference_estimate_error(*args, trials=trials, seed=seed, fixed_code=fixed)
            narrows = _count_calls(monkeypatch, "_narrow")
            got = estimate_error(*args, trials=trials, seed=seed, fixed_code=fixed)
            assert got.to_json() == want.to_json(), (tau, fixed)
            assert len(narrows) == (0 if fixed else 3)
            assert all(trials - sum(hits) < s.errors < trials for s in got.per_sink.values())


def test_fixed_code_keys_stay_exact_past_int64():
    # Three edges of 2^32 indices each into one sink: its reception as one
    # mixed-radix number needs 96 bits, so the keys must be ranked first.
    sources = ("s1", "s2", "s3")
    tau, delta, lam = Fraction(1, 4), Fraction(1, 20), Fraction(1, 2)
    for n, capacity in ((2, Fraction(79, 5)), (4, Fraction(39, 5))):
        net = Network(nodes=sources + ("t",), edges=tuple(Edge(s, "t", capacity) for s in sources),
                      sources=sources, sinks=("t",))
        model = random_source_model(random.Random(n), sources, min_alphabet=2, max_alphabet=2)
        code = build_code(net, dict.fromkeys(sources, 2), n, tau, delta, seed=0)
        assert set(code.index_sizes.values()) == {1 << 32}
        for fixed in (False, True):
            kwargs = dict(trials=30, seed=n, fixed_code=fixed)
            assert (estimate_error(net, model, n, tau, delta, lam, **kwargs).to_json()
                    == reference_estimate_error(net, model, n, tau, delta, lam, **kwargs).to_json())


@pytest.mark.parametrize("lam", [0, -0.25, float("nan")])
def test_slack_must_be_positive(lam):
    # NaN fails every comparison, so "lam <= 0" would let it through to a
    # run in which every trial errs.
    net, m = fixtures.butterfly_network(), fixtures.uniform_pair_source()
    n, tau, delta = 2, Fraction(1, 4), Fraction(1, 20)
    with pytest.raises(ValueError, match="typicality slack must be positive"):
        estimate_error(net, m, n, tau, delta, lam, trials=2, seed=1)
    code = build_code(net, ALPHABETS, n, tau, delta, seed=1)
    z = propagate(code, [(0, 0)] * n)
    with pytest.raises(ValueError, match="typicality slack must be positive"):
        decode(code, m, "t1", z["t1"], lam)


def test_numpy_parameters_run_as_their_python_values_and_bools_are_refused():
    # An np.float32 tau used to raise TypeError inside Fraction(), and
    # tau=True ran as tau = 1.
    net, m = fixtures.butterfly_network(), fixtures.uniform_pair_source()
    got = estimate_error(net, m, 2, np.float32(0.25), np.float16(0.0625), np.float64(3 / 32),
                         trials=5, seed=1)
    assert got.to_json() == estimate_error(net, m, 2, 0.25, 0.0625, 3 / 32, trials=5,
                                           seed=1).to_json()
    for tau, delta, lam in ((True, 0.0625, 3 / 32), (0.25, np.bool_(True), 3 / 32),
                            (0.25, 0.0625, True)):
        with pytest.raises(ValueError, match="^parameter True is not a Fraction, int or float$"):
            estimate_error(net, m, 2, tau, delta, lam, trials=5, seed=1)


def test_empty_typical_set_errs_everywhere_without_hiding_limits():
    net = fixtures.butterfly_network()
    m = fixtures.dsbs_source(Fraction(11, 100))
    n, tau, delta, lam = 4, Fraction(1, 4), Fraction(1, 20), 1e-9
    assert _CandidateSpace(net, m, n, lam).count == 0
    wide = fixtures.scaled_butterfly(15)  # u hears two 2^60.8-index edges
    for fixed in (False, True):
        with pytest.raises(LimitError, match="input domain"):
            estimate_error(wide, m, n, tau, delta, lam, trials=5, seed=1, fixed_code=fixed)
        result = estimate_error(net, m, n, tau, delta, lam, trials=5, seed=1, fixed_code=fixed)
        assert {t: s.rate for t, s in result.per_sink.items()} == {"t1": 1.0, "t2": 1.0}
    code = build_code(net, ALPHABETS, n, tau, delta, seed=1)
    z = propagate(code, [(0, 0)] * n)
    assert decode(code, m, "t1", z["t1"], lam) is None


def test_decode_validates_the_model_on_every_call():
    # Sizes and symbols equal to valid ones under == (2.0 == 2, True == 1)
    # are still rejected after a valid model with the same values decoded:
    # such a model cannot be built, so no decode call can take it.
    net = fixtures.butterfly_network()
    m = fixtures.uniform_pair_source()
    code = build_code(net, ALPHABETS, 2, Fraction(1, 4), Fraction(1, 20), seed=21)
    x = [(0, 1), (1, 0)]
    z = propagate(code, x)
    decode(code, m, "t1", z["t1"], 1 / 4)
    pmf = dict(m.pmf)
    bad_symbol = {(0, True) if tup == (0, 1) else tup: p for tup, p in pmf.items()}
    for sizes, bad_pmf in (((2.0, 2), pmf), (m.alphabet_sizes, bad_symbol)):
        with pytest.raises(DocumentError):
            SourceModel(m.sources, sizes, bad_pmf)
    # A valid model over other alphabets than the code's used to index past
    # the code's input domain.
    wider = SourceModel(m.sources, (3, 2),
                        {(a, b): Fraction(1, 6) for a in range(3) for b in range(2)})
    with pytest.raises(ValueError, match="alphabets"):
        decode(code, wider, "t1", z["t1"], 1 / 4)


def _candidate_space_family():
    """240 seeded candidate spaces: 1 to 3 sources with alphabets of 1 to 3
    symbols, rational and float pmfs; every third model lists its sources
    in another order than the network does.  Yields (source names, model,
    n, lambda, space)."""
    rng = random.Random(2026)
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
        yield names, model, n, lam, _CandidateSpace(net, model, n, lam)


def test_candidate_space_matches_reference():
    mixed = 0
    for names, model, n, lam, space in _candidate_space_family():
        blocks, codes, typical = reference_candidates(names, model, n, lam)
        assert [space.sequence_of(J) for J in range(space.total)] == blocks
        every = space._codes(np.arange(space.total))
        for s in names:
            assert np.array_equal(every[s], codes[s])
            assert np.array_equal(space.codes[s], np.array(codes[s], dtype=np.int64)[typical])
        assert np.array_equal(typical_ids(space), np.flatnonzero(typical))
        mixed += 0 < sum(typical) < len(typical)
    assert mixed >= 60


def test_codes_and_groups_match_the_digit_route():
    # The table lookup and the counting sort against the n x |typical|
    # digit array, np.unique and a stable comparison sort.
    split = 0
    for names, _, _, _, space in _candidate_space_family():
        want = reference_codes(space, typical_ids(space))
        for s in names:
            assert space.codes[s].dtype == np.int64
            assert np.array_equal(space.codes[s], want[s])
            distinct, inverse = np.unique(want[s], return_inverse=True)
            offsets = np.concatenate([[0], np.cumsum(np.bincount(inverse))])
            got = space.groups[s]
            for have, expected in zip(got, (distinct, inverse, np.argsort(inverse, kind="stable"),
                                            offsets)):
                assert np.array_equal(have, expected)
            split += len(distinct) > 1
    assert split >= 150


def _uniform_space_family():
    """Candidate spaces of models whose marginals are uniform on some
    subsets: uniform sources, whose blocks are all typical or none is, a
    source with one symbol, and the DSBS, whose joint alone is not
    uniform.  Yields (source names, model, n, lambda, space)."""
    models = [
        fixtures.uniform_pair_source(),
        fixtures.dsbs_source(Fraction(11, 100)),
        SourceModel(("a",), (3,), {(x,): Fraction(1, 3) for x in range(3)}),
        SourceModel(("a", "b"), (3, 2), {(x, y): 1 / 6 for x in range(3) for y in range(2)}),
        SourceModel(("a", "b"), (1, 2), {(0, 0): 0.5, (0, 1): 0.5}),
    ]
    for model in models:
        names = model.sources
        net = Network(nodes=(*names, "t"), edges=tuple(Edge(s, "t", Fraction(1)) for s in names),
                      sources=names, sinks=("t",))
        for n in range(1, 6):
            if math.prod(model.alphabet_sizes) ** n > 1000:
                break
            for lam in (1e-16, 1e-15, Fraction(3, 32), Fraction(1, 2)):
                yield names, model, n, lam, _CandidateSpace(net, model, n, lam)


def test_uniform_marginals_and_full_typical_sets_match_the_reference():
    # A subset whose symbols all have one term decides every block by block
    # 0's rate, and a space whose every block is typical takes its codes and
    # groups from outer sums: both against the per-block oracle and the
    # digit route.
    full = empty = 0
    for names, model, n, lam, space in _uniform_space_family():
        _, _, typical = reference_candidates(names, model, n, lam)
        assert np.array_equal(typical_ids(space), np.flatnonzero(typical))
        assert (space.ids is None) == all(typical)
        want = reference_codes(space, typical_ids(space))
        for s in names:
            assert np.array_equal(space.codes[s], want[s])
            distinct, inverse = np.unique(want[s], return_inverse=True)
            offsets = np.concatenate([[0], np.cumsum(np.bincount(inverse))])
            for have, expected in zip(space.groups[s], (distinct, inverse, np.argsort(
                    inverse, kind="stable"), offsets)):
                assert have.dtype == np.int64
                assert np.array_equal(have, expected)
        full += space.count == space.total
        empty += space.count == 0
    assert full >= 40 and empty >= 10


def test_stable_order_matches_a_comparison_sort():
    # Keys past 2^16 take the second radix pass.
    rng = np.random.default_rng(16)
    for bound in (1, 3, 1 << 16, (1 << 16) + 1, 1 << 24):
        for length in (0, 1, 1000, 70000):
            keys = rng.integers(0, bound, size=length, dtype=np.int64)
            assert np.array_equal(simulator._stable_order(keys), np.argsort(keys, kind="stable"))


def _encoder_instances():
    return {
        "butterfly": (fixtures.butterfly_network(), fixtures.uniform_pair_source()),
        "halved": (fixtures.scaled_butterfly(Fraction(1, 2)), fixtures.uniform_pair_source()),
        "dsbs": (fixtures.dsbs_network(Fraction(11, 100)), fixtures.dsbs_source(Fraction(11, 100))),
        "three": (three_source_network(),
                  random_source_model(random.Random(11), ("a", "b", "c"), max_alphabet=2)),
    }


def relay_fed_network() -> Network:
    """Sources s1 and s2 reach the sinks through relays only: t1 hears r,
    and t2 hears m (through a lossless edge) and r, where m hears r and s2."""
    edges = (Edge("s1", "r", Fraction(1)), Edge("s2", "r", Fraction(1)),
             Edge("r", "t1", Fraction(2)), Edge("r", "m", Fraction(3, 2)),
             Edge("s2", "m", Fraction(1, 2)), Edge("m", "t2", INF), Edge("r", "t2", Fraction(1)))
    return Network(nodes=("s1", "s2", "r", "m", "t1", "t2"), edges=edges,
                   sources=("s1", "s2"), sinks=("t1", "t2"))


def test_narrowing_matches_the_full_encoding(monkeypatch):
    # Fresh codes' survivor counts at sampled truths, narrowed edge by edge
    # as one block of (code, truth) trials, against reference_match's
    # matches on the encoding of every typical candidate under each trial's
    # code.  The relay-fed sinks start from the whole block at once and from
    # one trial at a time.
    instances = dict(_encoder_instances())
    instances["relay_fed"] = (relay_fed_network(), fixtures.dsbs_source(Fraction(11, 100)))
    rng = random.Random(14)
    multi = set()
    for name, (net, model) in sorted(instances.items()):
        for n in (1, 2, 3, 4):
            for lam in (Fraction(3, 32), Fraction(1, 2)):
                space = _CandidateSpace(net, model, n, lam)
                if not space.count:
                    continue
                tau = rng.choice((Fraction(1, 10), Fraction(1, 4), Fraction(3, 4)))
                codes, truths, expected = [], [], []
                for seed in range(3):
                    code = build_code(net, space.alphabets, n, tau, tau / 5, seed=seed)
                    received = simulator._encode(code, space.codes)
                    for pos in rng.sample(range(space.count), min(5, space.count)):
                        targets = {t: tuple(int(arr[pos]) for _, arr in digits)
                                   for t, digits in received.items()}
                        codes.append(code)
                        truths.append(pos)
                        expected.append(reference_match(space, received, targets))
                        for t, plan in simulator._plans(code).items():
                            k = plan[0][0]
                            tail = net.edges[k].tail
                            if tail in net.source_set:
                                distinct, inverse = space.groups[tail][:2]
                                bins = simulator._bin(code, k, distinct)
                                if (bins == bins[inverse[pos]]).sum() > 1:
                                    multi.add(name)
                block = simulator._stack(codes)
                plans = simulator._plans(block)
                for words in (simulator._BLOCK_WORDS, 1):
                    monkeypatch.setattr(simulator, "_BLOCK_WORDS", words)
                    narrowed = simulator._narrow(space, block, np.array(truths), plans)
                    for j, want in enumerate(expected):
                        got = {t: int(survivors[j]) for t, survivors in narrowed.items()}
                        assert got == {t: matches for t, (matches, _) in want.items()}, (
                            name, n, codes[j].seed, truths[j])
    assert {"halved", "three"} <= multi


def test_relay_fed_sinks_share_one_pass_over_the_candidates(monkeypatch):
    # Neither sink hears a source, so narrowing starts from every typical
    # candidate of every trial in a block; no edge's bins over all of them
    # are computed twice for one trial's code.
    net, model = relay_fed_network(), fixtures.dsbs_source(Fraction(11, 100))
    n, tau, delta, lam = 4, Fraction(1, 4), Fraction(1, 20), Fraction(1, 2)
    every = _CandidateSpace(net, model, n, lam).count
    args = (net, model, n, tau, delta, lam)
    want = reference_estimate_error(*args, trials=30, seed=4).to_json()
    full = []
    inner = simulator._bin

    def recorded(code, k, inputs, trials):
        per_trial = np.bincount(trials, minlength=len(code.seed))
        full.extend((code.seed[b].spawn_key, k) for b in np.flatnonzero(per_trial == every))
        return inner(code, k, inputs, trials)

    monkeypatch.setattr(simulator, "_bin", recorded)
    encodes = _count_calls(monkeypatch, "_encode")
    assert estimate_error(*args, trials=30, seed=4).to_json() == want
    assert full and len(set(full)) == len(full)
    assert not encodes


def test_raw_networks_simulate_as_their_reference_normalization():
    # Sources with in-edges and sources that are sinks, read as given,
    # against the same pair after the reference split.  The split appends
    # one infinite edge (k', k) per split source after the given edges, so
    # k's own sequence code is its input's last digit either way, and the
    # added edges draw no key and move none: documents, receptions and
    # decodings are identical.
    tau, delta, lam = Fraction(1, 4), Fraction(1, 20), Fraction(1, 2)
    rng = random.Random(25)
    into_source = source_sink = partial = decoded = 0
    for net, m, ref, m_ref, renaming in raw_instances(48, seed=2525):
        into_source += any(e.head in net.source_set for e in net.edges)
        source_sink += bool(net.source_set & net.sink_set)
        for n in (2, 3, 4):
            for fixed in (False, True):
                got = estimate_error(net, m, n, tau, delta, lam, 24, seed=5, fixed_code=fixed)
                want = estimate_error(ref, m_ref, n, tau, delta, lam, 24, seed=5, fixed_code=fixed)
                assert got.to_json() == want.to_json(), (net, n, fixed)
                partial += any(0 < s.errors < 24 for s in got.per_sink.values())
            alphabets = _CandidateSpace(net, m, n, lam).alphabets
            code = build_code(net, alphabets, n, tau, delta, seed=n)
            twin = build_code(ref, {renaming[s]: a for s, a in alphabets.items()},
                              n, tau, delta, seed=n)
            for _ in range(2):
                x = [tuple(rng.randrange(alphabets[s]) for s in net.sources) for _ in range(n)]
                z = propagate(code, x)
                assert z == propagate(twin, x), (net, n, x)
                for t in net.sinks:
                    out = decode(code, m, t, z[t], lam)
                    assert out == decode(twin, m_ref, t, z[t], lam), (net, n, x, t)
                    decoded += out == x
    assert into_source > 30 and source_sink > 30
    assert partial > 50 and decoded > 50


def test_encode_matches_python_int_reference(monkeypatch):
    # Every block at once, a few blocks, and one block through propagate:
    # the domains of sources and of relays (u, v1, r) fall on both sides of
    # the input count, so both routes of _bin are taken.  The reference hashes in Python ints, so numpy
    # wrap and shift mistakes cannot cancel out.
    hashed = []
    inner = simulator._hash

    def recorded(words, key, size):
        hashed.append(len(words))
        return inner(words, key, size)

    monkeypatch.setattr(simulator, "_hash", recorded)
    rng = random.Random(31)
    routes = set()
    for name, (net, model) in sorted(_encoder_instances().items()):
        for n in (1, 2, 3, 4):
            space = _CandidateSpace(net, model, n, Fraction(1, 2))
            every = reference_codes(space, np.arange(space.total))
            for seed in range(3):
                tau = rng.choice((Fraction(1, 10), Fraction(1, 4), Fraction(3, 4)))
                code = build_code(net, space.alphabets, n, tau, tau / 5, seed=seed)
                picks = sorted(rng.sample(range(space.total), min(3, space.total)))
                for ids in (range(space.total), picks):
                    hashed.clear()
                    received = simulator._encode(code, {s: c[list(ids)] for s, c in every.items()})
                    assert max(hashed, default=0) <= len(ids)
                    for k in code.keys:
                        tail = net.edges[k].tail
                        routes.add((tail in net.source_set, code.domains[tail] <= len(ids)))
                    for j, J in enumerate(ids):
                        want = reference_encode(code, {s: int(c[J]) for s, c in every.items()})
                        got = {t: tuple(int(arr[j]) for _, arr in digits)
                               for t, digits in received.items()}
                        assert got == want, (name, n, seed, J)
                J = picks[-1]
                want = reference_encode(code, {s: int(c[J]) for s, c in every.items()})
                assert propagate(code, space.sequence_of(J)) == {
                    t: tuple(v + 1 for v in z) for t, z in want.items()}
    assert routes == {(True, True), (True, False), (False, True), (False, False)}


def _chi_square_bounds(df: int, z: float = 4.75) -> tuple:
    """Wilson-Hilferty quantiles of chi-square(df) at the normal quantiles -z
    and z (two-sided level about 2e-6)."""
    c = 2.0 / (9.0 * df)
    return tuple(df * (1.0 - c + s * z * math.sqrt(c)) ** 3 for s in (-1.0, 1.0))


@pytest.mark.parametrize("size", [1, 2, 18, 776, 1024])
def test_bins_are_uniform(size):
    # Counts of the bins of 0..N-1 under four keys; a bin map that kept the
    # structure of its inputs (x mod size) would be too even.
    keys = np.random.SeedSequence(777).generate_state(4, np.uint64)
    per_bin = 200
    for key in keys:
        bins = simulator._hash(np.arange(per_bin * size, dtype=np.uint64), key, size)
        counts = np.bincount(bins, minlength=size)
        assert len(counts) == size
        if size == 1:
            assert counts[0] == per_bin
            continue
        chi2 = float(((counts - per_bin) ** 2).sum()) / per_bin
        low, high = _chi_square_bounds(size - 1)
        assert low < chi2 < high, (size, int(key), chi2)


def _wilson(hits: int, trials: int, z: float = 5.0) -> tuple:
    p = hits / trials
    centre = (p + z * z / (2 * trials)) / (1 + z * z / trials)
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / (1 + z * z / trials)
    return centre - half, centre + half


@pytest.mark.parametrize("size", [1, 2, 18, 776])
def test_distinct_inputs_collide_at_one_over_size(size):
    # Neighbours, inputs one bin size apart, and inputs with the top bit set.
    firsts = [0, 1, 7, 100, 5000, 2**40, 2**62, 2**63 - 2]
    pairs = [(x, x + d) for x in firsts for d in (1, size, 2 * size + 1)]
    pairs = [(x, y) for x, y in pairs if x != y]
    words = np.array([v for pair in pairs for v in pair], dtype=np.uint64)
    keys = np.random.SeedSequence(size).generate_state(2000, np.uint64)
    hits = 0
    for key in keys:
        bins = simulator._hash(words.copy(), key, size)
        hits += int((bins[0::2] == bins[1::2]).sum())
    trials = len(keys) * len(pairs)
    low, high = _wilson(hits, trials)
    assert low <= 1 / size <= high, (size, hits, trials)


def test_edges_and_trials_draw_distinct_keys():
    net = three_source_network()
    keys = []
    for trial in range(200):
        code = build_code(net, {"a": 2, "b": 2, "c": 2}, 3, Fraction(1, 4), Fraction(1, 20),
                          np.random.SeedSequence(entropy=5, spawn_key=(trial, 0)))
        assert sorted(code.keys) == [k for k, e in enumerate(net.edges) if not is_inf(e.capacity)]
        keys += [int(key) for key in code.keys.values()]
    assert len(keys) == 200 * 6
    assert len(set(keys)) == len(keys)


def test_reference_bin_agrees_with_the_vectorised_hash():
    rng = random.Random(5)
    words = [rng.getrandbits(63) for _ in range(200)] + [0, 1, 2**63 - 1]
    for size in (1, 3, 776, 2**40 + 3, 2**62):
        key = np.uint64(rng.getrandbits(64))
        got = simulator._hash(np.array(words, dtype=np.uint64), key, size)
        assert got.tolist() == [reference_bin(x, key, size) for x in words]
    # Two whole slices and a ragged tail, under one key and under a key per word.
    words = [rng.getrandbits(64) for _ in range(2 * simulator._SLICE + 77)]
    keys = [rng.getrandbits(64) for _ in words]
    for size in (776, 2**62):
        key = np.uint64(keys[0])
        got = simulator._hash(np.array(words, dtype=np.uint64), key, size)
        assert got.tolist() == [reference_bin(x, key, size) for x in words]
        got = simulator._hash(np.array(words, dtype=np.uint64), np.array(keys, dtype=np.uint64),
                              size)
        assert got.tolist() == [reference_bin(x, k, size) for x, k in zip(words, keys)]


def test_candidate_cap_stops_before_enumerating(monkeypatch):
    # Two binary sources at n=13 give 4^13 = 2^26 candidate blocks, past
    # the 2^24 cap: estimate_error and decode raise before any typicality scan.
    def scan(*args):
        raise AssertionError("the candidate space was enumerated")

    monkeypatch.setattr(_CandidateSpace, "_typical", scan)
    net, model = fixtures.butterfly_network(), fixtures.uniform_pair_source()
    tau, delta, lam = Fraction(1, 4), Fraction(1, 20), Fraction(3, 32)
    message = "candidate space has 4\\^13 sequences, past the bound 16777216"
    with pytest.raises(LimitError, match=message):
        estimate_error(net, model, 13, tau, delta, lam, trials=1, seed=0)
    code = build_code(net, ALPHABETS, 13, tau, delta, seed=0)
    with pytest.raises(LimitError, match=message):
        decode(code, model, "t1", (1, 1), lam)


@pytest.mark.parametrize("k, n", [(8, 3), (6, 4)])
def test_typicality_cap_stops_before_the_subset_scan(monkeypatch, k, n):
    # k uniform binary sources at block length n: (2^k - 1) 2^(kn) block-subset
    # pairs, past the 2^30 cap at k=8, n=3 (255 * 2^24) and within it at
    # k=6, n=4 (63 * 2^24), where the scan would start.
    def scan(*args):
        raise AssertionError("the candidate space was enumerated")

    monkeypatch.setattr(_CandidateSpace, "_typical", scan)
    names = tuple(f"s{i}" for i in range(k))
    net = Network(names + ("t",), tuple(Edge(s, "t", Fraction(n)) for s in names),
                  names, ("t",))
    model = SourceModel(names, (2,) * k,
                        {tup: Fraction(1, 1 << k) for tup in itertools.product((0, 1), repeat=k)})
    args = (net, model, n, Fraction(1, 4), Fraction(1, 20), Fraction(3, 32))
    if k == 8:
        message = (f"typicality test checks 255 subsets of 256\\^3 sequences, "
                   f"past the bound {1 << 30}")
        with pytest.raises(LimitError, match=message):
            estimate_error(*args, trials=1, seed=0)
    else:
        with pytest.raises(AssertionError, match="enumerated"):
            estimate_error(*args, trials=1, seed=0)
