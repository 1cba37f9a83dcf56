"""Property tests: arbitrary JSON documents and simulate flags never crash the CLI."""

import json
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from netmatch.cli import run

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
                              _scalars, max_size=7) | _json,
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
    assert code in (0, 1, 64, 65)
    if code in (64, 65):
        assert err.count("\n") == 1 and err.endswith("\n")


@_SETTINGS
@given(doc=_setfunc_docs, kind=st.sampled_from(["poly", "copoly"]))
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
    assert code in (0, 1, 2, 64, 65)
    assert "Traceback" not in err
    if code in (64, 65):
        assert err.count("\n") == 1 and err.endswith("\n")
