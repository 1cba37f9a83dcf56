"""Property tests: arbitrary JSON documents and simulate flags never crash
the CLI, and arbitrary source-model fields never crash the library."""

import json
from decimal import Decimal
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from netmatch import fixtures
from netmatch.cli import run
from netmatch.entropy import SourceModel, _integer_weights, entropy_profile, joint_entropy
from netmatch.errors import DocumentError, NetmatchError, dump_json
from netmatch.regions import equivalence_check, separation_check
from netmatch.scalars import MAX_EXPONENT, parse_probability, parse_scalar, round_float
from netmatch.simulator import build_code, decode, estimate_error, propagate
from netmatch.transmissibility import check

_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])

_scalars = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=True)
            | st.sampled_from(["1", "1/2", "0.25", "inf", "-1", "x", "1/0", ""]) | st.text(max_size=4))
_json = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=4), max_leaves=12)
_names = st.lists(st.sampled_from(["a", "b", "c", "a+b", " a", ""]), max_size=3)

#: Set-function documents: arbitrary JSON, and the documented shape with
#: arbitrary parts.
_setfunc_docs = _json | st.fixed_dictionaries({
    "ground": _names | _json,
    "values": st.dictionaries(st.sampled_from(["a", "b", "c", "a+b", "a+c", "b+c", "a+b+c", "z"]),
                              _scalars | st.just("1e400"), max_size=7) | _json,
})

_source_docs = _json | st.fixed_dictionaries({
    "sources": st.just(["a"]) | _names | _json,
    "alphabets": st.just([2]) | st.lists(st.integers(-1, 3) | _scalars, max_size=3) | _json,
    "pmf": st.lists(st.fixed_dictionaries({
        "symbols": st.lists(st.integers(-1, 2) | st.lists(st.integers(0, 1), max_size=1) | _json,
                            max_size=3) | _json,
        "p": _scalars,
    }), max_size=4) | _json,
})


def _run_document(tmp_path, capsys, doc, argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = run([*argv, str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 65)
    if code == 65:
        assert err.count("\n") == 1 and err.endswith("\n")


@_SETTINGS
@given(doc=_setfunc_docs, kind=st.sampled_from(["poly", "copoly"]))
# A float mixed with rationals past the float range and with inf.
@example(doc={"ground": ["a", "b"], "values": {"a": 0.5, "b": "1e400", "a+b": "inf"}},
         kind="poly")
@example(doc={"ground": ["a", "b"], "values": {"a": 0.5, "b": "1e400", "a+b": "2e400"}},
         kind="copoly")
def test_setfunc_verify_never_crashes(tmp_path, capsys, doc, kind):
    _run_document(tmp_path, capsys, doc, ["setfunc", "verify", "--kind", kind, "--input"])


@_SETTINGS
@given(doc=_source_docs)
def test_entropy_never_crashes(tmp_path, capsys, doc):
    _run_document(tmp_path, capsys, doc, ["entropy", "--source"])

_nodes = st.sampled_from(["a", "b", "c", ""])

#: Network documents: arbitrary JSON, and the documented shape with
#: arbitrary parts (edge endpoints included).
_network_docs = _json | st.fixed_dictionaries({
    "nodes": st.just(["a", "b", "c"]) | st.lists(_nodes, max_size=3) | _json,
    "edges": st.lists(st.fixed_dictionaries({
        "from": _nodes | _json,
        "to": _nodes | _json,
        "capacity": _scalars,
    }), max_size=3) | _json,
    "sources": st.just(["a"]) | st.lists(_nodes, max_size=2) | _json,
    "sinks": st.just(["c"]) | st.lists(_nodes, max_size=2) | _json,
})


@_SETTINGS
@given(doc=_network_docs)
def test_mincut_all_never_crashes(tmp_path, capsys, doc):
    _run_document(tmp_path, capsys, doc, ["mincut", "--all", "--network"])


_DATA = Path(__file__).parent / "data"
_flag = st.sampled_from

#: simulate flags: valid values (block lengths up to 6), malformed ones,
#: and values whose exact arithmetic is huge (an index-set exponent with a
#: 24-digit numerator, 1e4300 as tau or lambda).
_simulate_flags = st.fixed_dictionaries({
    "--n": st.none() | _flag(["1", "2", "6", "0", "-3", "x"]),
    "--sweep": st.none() | _flag(["1,3", "2,,6", ",", "", "-1", "0,2", "a"]),
    "--tau": _flag(["1/4", "1/3", "1/2", "1e4300", "1e-4300", "0", "inf"]),
    "--delta": _flag(["1/20", "1/100000000000000000000001", "1e-4300", "1/4", "-1/20"]),
    "--lambda": st.none() | _flag(["3/32", "1/2", "1e4300", "1e-4300", "0", "-1"]),
    "--trials": _flag(["1", "3", "0", "-1"]),
    "--seed": _flag(["0", "7", "-1", "123456789012345678901234567890"]),
})


@_SETTINGS
@given(flags=_simulate_flags)
def test_simulate_flags_never_crash(capsys, flags):
    argv = ["simulate", "--network", str(_DATA / "regions_butterfly.network.json"),
            "--source", str(_DATA / "regions_butterfly.source.json")]
    for flag, value in flags.items():
        if value is not None:
            argv += [flag, value]
    code = run(argv)
    err = capsys.readouterr().err
    assert code in (0, 64, 65)
    if code in (64, 65):
        assert err.count("\n") == 1 and err.endswith("\n")


_PAIRS = [(u, v) for u in "abc" for v in "abc" if u != v]
_capacities = st.sampled_from(["1", "1/2", "2", "0", "inf", "1e-4300", "1e4300"])


@st.composite
def _paired_docs(draw):
    """A network on nodes a, b, c (cycles, and sources that are sinks or
    have in-edges, included) and a source model over its sources whose pmf
    sums to 1; one draw in five replaces either document by an arbitrary
    one."""
    sources = draw(st.sampled_from([["a"], ["a", "b"], ["b", "a"]]))
    network = {
        "nodes": ["a", "b", "c"],
        "edges": [{"from": u, "to": v, "capacity": draw(_capacities)}
                  for u, v in draw(st.lists(st.sampled_from(_PAIRS), unique=True, max_size=5))],
        "sources": sources,
        "sinks": draw(st.sampled_from([["c"], ["b", "c"], ["a"]])),
    }
    sizes = [draw(st.integers(1, 2)) for _ in sources]
    tuples = list(product(*map(range, sizes)))
    weights = [draw(st.integers(0, 3)) for _ in tuples]
    total = sum(weights)
    if not total:
        weights[0] = total = 1
    source = {"sources": draw(st.permutations(sources)), "alphabets": sizes,
              "pmf": [{"symbols": list(t), "p": f"{w}/{total}"} for t, w in zip(tuples, weights)]}
    if draw(st.integers(0, 4)) == 0:
        network = draw(_network_docs)
    if draw(st.integers(0, 4)) == 0:
        source = draw(_source_docs)
    return network, source


_PAIRED_COMMANDS = {
    "check": ["check"],
    "regions": ["regions"],
    "separation": ["regions", "--separation"],
    "simulate": ["simulate", "--n", "2", "--trials", "2"],
}


@pytest.mark.parametrize("command", sorted(_PAIRED_COMMANDS))
@_SETTINGS
@given(docs=_paired_docs())
def test_paired_documents_never_crash(tmp_path, capsys, command, docs):
    paths = {}
    for key, doc in zip(("network", "source"), docs):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc))
    code = run([*_PAIRED_COMMANDS[command], "--network", str(paths["network"]),
                "--source", str(paths["source"])])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 65)
    assert "Traceback" not in err
    if code == 65:
        assert err.count("\n") == 1 and err.endswith("\n")


#: Library values a document never holds: Decimals, numpy scalars, NaN and
#: infinite floats, Fractions, names with a separator, nested tuples.
_atoms = (st.none() | st.booleans() | st.integers(-1, 3) | st.floats(allow_nan=True)
          | st.sampled_from([Decimal("0.5"), Decimal("NaN"), Decimal("-Infinity"),
                             np.int64(1), np.float64(0.5), np.float64("nan"), np.bool_(True),
                             Fraction(1, 2), Fraction(-1, 2), "s1", "s2", "s1+s2", ""]))
_values = st.recursive(_atoms, lambda inner: st.lists(inner, max_size=3).map(tuple),
                       max_leaves=6)


@st.composite
def _model_fields(draw):
    """(sources, alphabet_sizes, pmf) for SourceModel: names of the
    butterfly's sources in either order, alphabets of 1 to 3 symbols and a
    pmf summing to 1, each part replaced by an arbitrary value one draw in
    four, and one pmf entry so one draw in four."""
    def arbitrary():
        return draw(st.integers(0, 3)) == 0

    sources = draw(_values if arbitrary() else st.sampled_from([("s1", "s2"), ("s2", "s1")]))
    if arbitrary():
        return sources, draw(_values), draw(st.dictionaries(_values, _values, max_size=4) | _values)
    sizes = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    tuples = list(product(*map(range, sizes)))
    weights = [draw(st.integers(0, 3)) for _ in tuples]
    total = sum(weights) or 1
    rational = draw(st.booleans())
    pmf = {t: Fraction(w, total) if rational else w / total for t, w in zip(tuples, weights)}
    if arbitrary():
        pmf[draw(st.sampled_from(tuples) | _values)] = draw(_atoms)
    return sources, sizes, pmf


_BUTTERFLY = fixtures.butterfly_network()
_CODE = build_code(_BUTTERFLY, {"s1": 2, "s2": 2}, 2, Fraction(1, 4), Fraction(1, 20), seed=3)
_RECEIVED = propagate(_CODE, [(0, 1), (1, 0)])["t1"]


@_SETTINGS
@given(fields=_model_fields())
def test_a_library_model_is_refused_or_answered(fields):
    try:
        model = SourceModel(*fields)
    except DocumentError:
        return
    # What the bulk checks accept, the entry-by-entry checks accept too,
    # with the same weights.
    model._check_entries()
    assert model.integer_weights == _integer_weights(model)
    calls = [
        lambda: check(_BUTTERFLY, model),
        lambda: equivalence_check(_BUTTERFLY, model),
        lambda: separation_check(_BUTTERFLY, model),
        lambda: entropy_profile(model),
        lambda: joint_entropy(model, model.sources),
        lambda: estimate_error(_BUTTERFLY, model, 2, Fraction(1, 4), Fraction(1, 20), 0.5, 3, 1),
        lambda: decode(_CODE, model, "t1", _RECEIVED, 0.5),
    ]
    for call in calls:
        try:
            call()
        except (NetmatchError, ValueError):
            pass


#: JSON values as documents hold them, and the values that print oddly:
#: -0.0, infinities (a 1e4300 capacity's margin), NaN, ints past 2^63,
#: 9-digit rounded floats, and strings and keys that need escapes.
_texts = st.text(max_size=6) | st.sampled_from(["", "\u00e9", "\U0001f600", "a\"b", "\\", "\n\t",
                                                  "\x00\x1f", "},\n    {", "\u2028"])
_leaves = (st.none() | st.booleans() | st.integers() | st.integers(2**63 - 2, 2**80)
           | st.floats(allow_nan=True) | st.floats().map(round_float)
           | st.sampled_from([-0.0, float("inf"), -float("inf")]) | _texts)
_documents = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.dictionaries(_texts, inner, max_size=4)
                   | st.lists(st.dictionaries(_texts, _leaves, max_size=4), max_size=4)),
    max_leaves=30)


@_SETTINGS
@given(doc=_documents)
def test_the_json_writer_prints_what_json_dumps_prints(doc):
    assert dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def _reference_rational(text: str):
    """What every rational string gave before the strict path: ``Fraction``
    of the stripped text, or the one message."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return f"not a rational value: {text!r}"


def _with_examples(test):
    for text in ["1/0", " 3/4 ", "+1/2", "1_0/3", "\u0663/\u0664", "1e3", "0.25", "007/014",
                 "0/00", "3 / 4", "1/", "/2", "", "1" * 4301, "1/" + "1" * 4301, "1e99999"]:
        test = example(text=text)(test)
    return test


@_SETTINGS
@_with_examples
@given(text=st.text(alphabet="0123456789/ +-_.eE\u0663\u0664\t", max_size=7))
def test_the_strict_rational_path_gives_fractions_value_or_message(text):
    for parse in (parse_probability, lambda v: parse_scalar(v, allow_inf=False)):
        try:
            got = parse(text)
        except ValueError as exc:
            got = str(exc)
        if got == f"exponent of {text!r} exceeds {MAX_EXPONENT} in magnitude":
            continue  # checked before either path
        want = _reference_rational(text)
        assert got == want and type(got) is type(want), text
