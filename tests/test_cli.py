"""Command-line behavior: exit codes, document output, round-trips."""

import ast
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import netmatch
from netmatch import cli, fixtures, mincut, regions, scalars, setfunc, transmissibility
from netmatch.cli import run
from netmatch.scalars import parse_probability, parse_scalar

from conftest import network_to_document, source_model_to_document


@pytest.fixture
def paths(tmp_path):
    network = tmp_path / "butterfly.json"
    network.write_text(json.dumps(network_to_document(fixtures.butterfly_network())))
    source = tmp_path / "uniform2.json"
    source.write_text(json.dumps(source_model_to_document(fixtures.uniform_pair_source())))
    return {"network": str(network), "source": str(source)}


def test_check_boundary_exit_code(paths, capsys):
    code = run(["check", "--network", paths["network"], "--source", paths["source"]])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("tight") >= 3
    assert "boundary" in out


def test_check_json_document(paths, capsys):
    code = run(["--format", "json", "check", "--network", paths["network"],
                "--source", paths["source"]])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["verdict"] == "boundary"
    assert [row["subset"] for row in doc["rows"]] == ["s1", "s2", "s1+s2"]
    assert all(row["margin"] == 0 for row in doc["rows"])


def test_check_failing_instance_exits_one(tmp_path, paths, capsys):
    import fractions

    starved = tmp_path / "starved.json"
    starved.write_text(json.dumps(network_to_document(
        fixtures.scaled_butterfly(fractions.Fraction(1, 2)))))
    code = run(["check", "--network", str(starved), "--source", paths["source"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "not-transmissible" in out
    assert "add at least" in out


def test_check_missing_flag_is_usage_error(paths, capsys):
    assert run(["check", "--network", paths["network"]]) == 64
    assert "usage error" in capsys.readouterr().err


def test_malformed_document_is_data_error(tmp_path, paths, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["check", "--network", str(bad), "--source", paths["source"]]) == 65
    assert "error" in capsys.readouterr().err


def test_missing_file_is_data_error(paths):
    assert run(["check", "--network", "/nonexistent.json",
                "--source", paths["source"]]) == 65


def test_mincut_subset_and_sink(paths, capsys):
    assert run(["mincut", "--network", paths["network"], "--subset", "s1",
                "--sink", "t1"]) == 0
    assert capsys.readouterr().out.strip() == "rho_t1(s1) = 2"
    assert run(["mincut", "--network", paths["network"], "--subset", "s1,s2"]) == 0
    assert capsys.readouterr().out.strip() == "rho_N(s1+s2) = 2"


def test_mincut_empty_sink_is_an_unknown_sink(capsys):
    # An empty --sink names no sink; it must not fall back to rho_N.
    argv = ["mincut", "--network", str(DATA / "regions_butterfly.network.json"),
            "--subset", "s1", "--sink", ""]
    assert run(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: '' is not a sink node\n"


def test_mincut_all_document(paths, capsys):
    assert run(["--format", "json", "mincut", "--network", paths["network"],
                "--all"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["network_wide"] == {"s1": "1", "s2": "1", "s1+s2": "2"}
    assert doc["per_sink"]["t1"]["s1"] == "2"


def test_entropy_subset(paths, capsys):
    assert run(["entropy", "--source", paths["source"], "--subset", "s1"]) == 0
    out = capsys.readouterr().out
    assert "H(s1) = 1" in out
    assert "H(s1|rest) = 1" in out


def test_entropy_full_profile_json(paths, capsys):
    assert run(["--format", "json", "entropy", "--source", paths["source"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["joint"] == {"s1": 1.0, "s2": 1.0, "s1+s2": 2.0}


def test_setfunc_verify_exit_codes(tmp_path, capsys):
    good = tmp_path / "poly.json"
    good.write_text(json.dumps({
        "ground": ["s1", "s2"],
        "values": {"s1": "2", "s2": "1", "s1+s2": "2"},
    }))
    assert run(["setfunc", "verify", "--kind", "poly", "--input", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "notpoly.json"
    bad.write_text(json.dumps({
        "ground": ["a", "b"],
        "values": {"a": "2", "b": "2", "a+b": "5"},
    }))
    assert run(["setfunc", "verify", "--kind", "poly", "--input", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "submodularity" in out


def test_regions_exit_codes(paths, capsys):
    assert run(["regions", "--network", paths["network"],
                "--source", paths["source"]]) == 2  # boundary instance
    capsys.readouterr()
    assert run(["regions", "--network", paths["network"], "--source", paths["source"],
                "--separation"]) == 0
    out = capsys.readouterr().out
    assert "separable: True" in out


def test_regions_separation_failure(tmp_path, capsys):
    p = 0.11
    network = tmp_path / "net2.json"
    network.write_text(json.dumps(network_to_document(fixtures.dsbs_network(p))))
    source = tmp_path / "src2.json"
    source.write_text(json.dumps(source_model_to_document(fixtures.dsbs_source(p))))
    assert run(["regions", "--network", str(network), "--source", str(source),
                "--separation"]) == 1
    out = capsys.readouterr().out
    assert "separable: False" in out
    assert "contradiction" in out


def test_simulate_byte_identical_documents(paths, capsys):
    argv = ["--format", "json", "simulate", "--network", paths["network"],
            "--source", paths["source"], "--n", "2", "--trials", "25", "--seed", "42"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["trials"] == 25 and doc["n"] == 2
    assert set(doc["sinks"]) == {"t1", "t2"}


def test_simulate_sweep_table(paths, capsys):
    assert run(["simulate", "--network", paths["network"], "--source", paths["source"],
                "--sweep", "1,2", "--trials", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[:3] == ["n", "err_t1", "err_t2"]
    assert len(out) == 4  # header, rule, two data rows


def test_simulate_requires_n_or_sweep(paths, capsys):
    assert run(["simulate", "--network", paths["network"],
                "--source", paths["source"]]) == 64


def test_table_digits_round_trip_through_json(paths, capsys, tmp_path):
    p = 0.11
    network = tmp_path / "net2.json"
    network.write_text(json.dumps(network_to_document(fixtures.dsbs_network(p))))
    source = tmp_path / "src2.json"
    source.write_text(json.dumps(source_model_to_document(fixtures.dsbs_source(p))))
    argv = ["check", "--network", str(network), "--source", str(source)]
    run(argv)
    table = capsys.readouterr().out
    run(["--format", "json"] + argv)
    doc = json.loads(capsys.readouterr().out)
    for row in doc["rows"]:
        assert f"{row['sigma']:.9g}" in table
        assert f"{row['margin']:.9g}" in table


def test_demo_example1(capsys):
    assert run(["demo", "example1"]) == 0
    out = capsys.readouterr().out
    assert "0 decoding errors" in out
    assert "65536" in out
    assert "boundary" in out


def test_demo_example2_custom_p(capsys):
    assert run(["demo", "example2", "--p", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "0.811278" in out  # h(1/4) to the printed precision
    assert "transmissible" in out


def test_demo_example2_degenerate_p_zero(capsys):
    assert run(["demo", "example2", "--p", "0"]) == 0
    out = capsys.readouterr().out
    assert "transmissible" in out


def test_demo_unknown_name(capsys):
    assert run(["demo", "example3"]) == 64


def test_quiet_suppresses_output(paths, capsys):
    code = run(["--quiet", "check", "--network", paths["network"],
                "--source", paths["source"]])
    assert code == 2
    assert capsys.readouterr().out == ""


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, code", [("check_k6_pass", 0), ("check_k6_fail", 1),
                                        ("check_renamed_fail", 1)])
@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("table", "txt")])
def test_check_output_bytes_are_pinned(capsys, name, code, fmt, ext):
    # Six-source layered instances from the benchmark's generator, and a
    # two-source one whose source a has an incoming edge; the table form
    # also pins the worst subset's cut edges.
    argv = ["--format", fmt, "check", "--network", str(DATA / f"{name}.network.json"),
            "--source", str(DATA / f"{name}.source.json")]
    assert run(argv) == code
    assert capsys.readouterr().out == (DATA / f"{name}.stdout.{ext}").read_text()


@pytest.mark.parametrize("name, fmt, calls", [
    ("check_k6_fail", "json", 0),
    ("check_k6_fail", "table", 1),
    ("check_k6_pass", "table", 0),
])
def test_check_runs_max_flow_only_for_the_printed_cut(monkeypatch, capsys, name, fmt, calls):
    # The capacity walk keeps values only; the one cut a failing table
    # prints comes from one cold max_flow, and nothing else calls it.
    counted, original = [], mincut.max_flow

    def counting(*args, **kwargs):
        counted.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(transmissibility, "max_flow", counting)
    monkeypatch.setattr(mincut, "max_flow", counting)
    argv = ["--format", fmt, "check", "--network", str(DATA / f"{name}.network.json"),
            "--source", str(DATA / f"{name}.source.json")]
    assert run(argv) == (1 if name.endswith("fail") else 0)
    capsys.readouterr()
    assert len(counted) == calls



@pytest.mark.parametrize("name", ["check_k6_fail", "check_renamed_fail", "order_ab"])
def test_check_builds_no_slepian_wolf_rows(monkeypatch, capsys, name):
    # check compares floats; only the region LPs need the snapped SW rows.
    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)
        return wrapper

    for module in (regions, setfunc, scalars):
        monkeypatch.setattr(module, "snap_to_rational", counting(scalars.snap_to_rational))
    monkeypatch.setattr(regions, "sw_polyhedron", counting(regions.sw_polyhedron))
    network = DATA / ("order_ba" if name == "order_ab" else name)
    run(["--format", "json", "check", "--network", f"{network}.network.json",
         "--source", str(DATA / f"{name}.source.json")])
    assert json.loads(capsys.readouterr().out)["rows"]
    assert calls == []
    run(["regions", "--network", f"{network}.network.json",
         "--source", str(DATA / f"{name}.source.json")])
    assert "sw_polyhedron" in calls and "snap_to_rational" in calls  # the probes see calls



@pytest.mark.parametrize("name", ["example1", "example2"])
@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("table", "txt")])
def test_demo_output_bytes_are_pinned(capsys, name, fmt, ext):
    assert run(["--format", fmt, "demo", name]) == 0
    assert capsys.readouterr().out == (DATA / f"demo_{name}.stdout.{ext}").read_text()

def test_setfunc_verify_explicit_zero_tolerance(tmp_path, capsys):
    fn = tmp_path / "poly.json"
    fn.write_text(json.dumps({"ground": ["s1", "s2"],
                              "values": {"s1": "7/3", "s2": "3", "s1+s2": "10/3"}}))
    assert run(["setfunc", "verify", "--kind", "poly", "--input", str(fn),
                "--tol", "0"]) == 0
    assert capsys.readouterr().out.strip() == "poly: axioms hold"


def test_setfunc_verify_explicit_zero_tolerance_with_infinite_values(tmp_path, capsys):
    # Rationals mixed with inf: the float tolerance 0.0 must not round 1/3 + 0.
    fn = tmp_path / "mixed.json"
    fn.write_text(json.dumps({"ground": ["a", "b", "c"], "values": {
        "a": "1/3", "b": "1/3", "c": "inf", "a+b": "1/3",
        "a+c": "inf", "b+c": "inf", "a+b+c": "inf"}}))
    assert run(["setfunc", "verify", "--kind", "poly", "--input", str(fn),
                "--tol", "0"]) == 0
    assert capsys.readouterr().out.strip() == "poly: axioms hold"


def _assert_one_line_usage_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and "tolerance" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("kind", ["poly", "copoly"])
@pytest.mark.parametrize("values", ['{"a": NaN, "b": 1, "a+b": 2}',
                                    '{"a": 5, "b": 1, "a+b": NaN}'])
def test_setfunc_verify_rejects_nan_values(tmp_path, capsys, kind, values):
    fn = tmp_path / "nan.json"
    fn.write_text('{"ground": ["a", "b"], "values": %s}' % values)
    assert run(["setfunc", "verify", "--kind", kind, "--input", str(fn)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "NaN" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("kind", ["poly", "copoly"])
@pytest.mark.parametrize("values, message", [
    ({"a": "1", "b": "1", "a+b": "2", "b+a": "5"},
     "error: subset 'b+a' names the same subset as 'a+b'\n"),
    ({"a": "1", "b": "1", "a+b": "2", "a+a": "9"},
     "error: subset 'a+a' names the same subset as 'a'\n"),
], ids=["reordered", "repeated-member"])
def test_setfunc_verify_rejects_a_subset_given_twice(tmp_path, capsys, kind, values, message):
    # Either key alone describes a valid function; given both, neither wins.
    fn = tmp_path / "twice.json"
    fn.write_text(json.dumps({"ground": ["a", "b"], "values": values}))
    assert run(["setfunc", "verify", "--kind", kind, "--input", str(fn)]) == 65
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


@pytest.mark.parametrize("argv, document, message", [
    (["setfunc", "verify", "--kind", "poly", "--input"],
     '{"ground": ["a", "b"], "values": {"a": "1", "b": "1", "a+b": "2", "a+b": "5"}}',
     "error: set-function document repeats the key 'a+b'\n"),
    (["mincut", "--all", "--network"],
     '{"nodes": ["s", "t"], "edges": [{"from": "s", "to": "t", "capacity": "1", '
     '"capacity": "3"}], "sources": ["s"], "sinks": ["t"]}',
     "error: network document repeats the key 'capacity'\n"),
    (["entropy", "--source"],
     '{"sources": ["a"], "alphabets": [2], "pmf": [{"symbols": [0], "p": "1/2"}, '
     '{"symbols": [1], "p": "1/2", "p": "1/4"}]}',
     "error: source document repeats the key 'p'\n"),
], ids=["set-function", "network", "source"])
def test_documents_reject_a_repeated_key(tmp_path, capsys, argv, document, message):
    # json.loads alone keeps the last of the repeated values.
    fn = tmp_path / "repeated.json"
    fn.write_text(document)
    assert run([*argv, str(fn)]) == 65
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


def test_setfunc_verify_rejects_negative_infinity(tmp_path, capsys):
    fn = tmp_path / "neginf.json"
    fn.write_text('{"ground": ["a", "b"], "values": {"a": -Infinity, "b": 1, "a+b": 1}}')
    assert run(["setfunc", "verify", "--kind", "poly", "--input", str(fn)]) == 65
    assert capsys.readouterr().err == "error: negative value on subset ['a']\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_check_rejects_invalid_tolerance(tmp_path, paths, capsys, tol):
    halved = tmp_path / "halved.json"
    halved.write_text(json.dumps(network_to_document(fixtures.scaled_butterfly(Fraction(1, 2)))))
    assert run(["check", "--network", str(halved), "--source", paths["source"],
                "--tol", tol]) == 64
    _assert_one_line_usage_error(capsys)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_setfunc_verify_rejects_invalid_tolerance(tmp_path, capsys, tol):
    fn = tmp_path / "notpoly.json"
    fn.write_text(json.dumps({"ground": ["a", "b"], "values": {"a": "2", "b": "1", "a+b": "1"}}))
    assert run(["setfunc", "verify", "--kind", "poly", "--input", str(fn), "--tol", tol]) == 64
    _assert_one_line_usage_error(capsys)


@pytest.mark.parametrize("name, kind, tol, code", [
    ("verify_k6_rational_pass", "poly", [], 0),
    ("verify_k6_rational_fail", "poly", [], 1),
    ("verify_float_pass", "copoly", ["--tol", "1e-9"], 0),
    ("verify_float_fail", "copoly", ["--tol", "1e-9"], 1),
])
@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("table", "txt")])
def test_setfunc_verify_output_bytes_are_pinned(capsys, name, kind, tol, code, fmt, ext):
    # Six-source weighted coverage functions (one value raised in the failing
    # one) and four-source conditional entropies (one value raised).
    argv = ["--format", fmt, "setfunc", "verify", "--kind", kind,
            "--input", str(DATA / f"{name}.json"), *tol]
    assert run(argv) == code
    assert capsys.readouterr().out == (DATA / f"{name}.stdout.{ext}").read_text()


def _assert_one_line_data_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_setfunc_verify_rejects_non_object_values(tmp_path, capsys):
    fn = tmp_path / "list.json"
    fn.write_text(json.dumps({"ground": ["a"], "values": [1]}))
    assert run(["setfunc", "verify", "--kind", "poly", "--input", str(fn)]) == 65
    _assert_one_line_data_error(capsys)


@pytest.mark.parametrize("symbols", [[[0]], [{"x": 0}], [0.5], ["0"]])
def test_entropy_rejects_non_integer_symbols(tmp_path, capsys, symbols):
    fn = tmp_path / "source.json"
    fn.write_text(json.dumps({"sources": ["a"], "alphabets": [2],
                              "pmf": [{"symbols": symbols, "p": "1"}]}))
    assert run(["entropy", "--source", str(fn)]) == 65
    _assert_one_line_data_error(capsys)


@pytest.mark.parametrize("name, codes", [
    ("butterfly", (2, 0)),
    ("halved", (1, 1)),
    ("dsbs", (2, 1)),
    ("k4_feasible", (0, 0)),
    ("k3_infeasible", (1, 1)),
])
@pytest.mark.parametrize("separation", [False, True])
@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("table", "txt")])
def test_regions_output_bytes_are_pinned(capsys, name, codes, separation, fmt, ext):
    # Butterfly (boundary), halved butterfly, the DSBS fixture pair, and two
    # layered instances from the benchmark's generator (every LP feasible, or
    # every LP infeasible); codes are (regions, regions --separation).
    argv = ["--format", fmt, "regions",
            "--network", str(DATA / f"regions_{name}.network.json"),
            "--source", str(DATA / f"regions_{name}.source.json")]
    suffix = ".separation" if separation else ""
    assert run(argv + ["--separation"] * separation) == codes[separation]
    assert capsys.readouterr().out == (DATA / f"regions_{name}{suffix}.stdout.{ext}").read_text()


@pytest.mark.parametrize("separation", [False, True])
@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("table", "txt")])
def test_regions_on_a_source_with_an_in_edge_is_pinned(capsys, separation, fmt, ext):
    # Source a has an incoming edge; labels, conflicts and the worst subset
    # use the model's names (a+b), as check does.
    argv = ["--format", fmt, "regions",
            "--network", str(DATA / "check_renamed_fail.network.json"),
            "--source", str(DATA / "check_renamed_fail.source.json")]
    suffix = ".separation" if separation else ""
    assert run(argv + ["--separation"] * separation) == 1
    out = capsys.readouterr().out
    assert out == (DATA / f"check_renamed_fail.regions{suffix}.stdout.{ext}").read_text()
    assert "'" not in out


@pytest.mark.parametrize("args, out", [
    (["--all"], "subset  rho_k  rho_t  rho_N\n"
                "------  -----  -----  -----\n"
                "k       inf    2      2\n"),
    (["--subset", "k"], "rho_N(k) = 2\n"),
    (["--subset", "k", "--sink", "k"], "rho_k(k) = inf\n"),
    (["--subset", "k", "--sink", "t"], "rho_t(k) = 2\n"),
])
def test_mincut_sink_inside_the_source_set_is_infinite(tmp_path, capsys, args, out):
    # Source k is also a sink: there is no cut separating k from itself.
    network = tmp_path / "kt.json"
    network.write_text(json.dumps({
        "nodes": ["k", "t"], "edges": [{"from": "k", "to": "t", "capacity": "2"}],
        "sources": ["k"], "sinks": ["k", "t"]}))
    assert run(["mincut", "--network", str(network)] + args) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_demo_computes_each_profile_once(monkeypatch, capsys, name):
    calls = {"capacity_profile": 0, "entropy_profile": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, regions):
        for attr in calls:
            monkeypatch.setattr(module, attr, counted(getattr(module, attr)))
    assert run(["demo", name]) == 0
    assert calls == {"capacity_profile": 1, "entropy_profile": 1}


def test_simulate_source_name_mismatch_is_data_error(tmp_path, paths, capsys):
    # The same input check and regions reject with exit 65.
    source = tmp_path / "renamed.json"
    doc = source_model_to_document(fixtures.uniform_pair_source())
    doc["sources"] = ["s1", "x"]
    source.write_text(json.dumps(doc))
    for argv in (["check"], ["regions"], ["simulate", "--n", "2", "--trials", "2"]):
        assert run([*argv, "--network", paths["network"], "--source", str(source)]) == 65
        _assert_one_line_data_error(capsys)


def test_setfunc_separator_in_ground_name_is_named(tmp_path, capsys):
    fn = tmp_path / "sep.json"
    fn.write_text(json.dumps({"ground": ["a+b"], "values": {"a+b": "1"}}))
    assert run(["setfunc", "verify", "--kind", "poly", "--input", str(fn)]) == 65
    err = capsys.readouterr().err
    assert err == "error: source name 'a+b' contains a subset separator, '+' or ','\n"


def test_network_edge_endpoints_must_be_strings(tmp_path, capsys):
    doc = network_to_document(fixtures.butterfly_network())
    doc["edges"][0]["from"] = ["s1"]
    fn = tmp_path / "net.json"
    fn.write_text(json.dumps(doc))
    assert run(["mincut", "--all", "--network", str(fn)]) == 65
    _assert_one_line_data_error(capsys)


@pytest.mark.parametrize("name", ["a+b", "a,b"])
@pytest.mark.parametrize("command", ["mincut", "entropy", "check", "setfunc"])
def test_separator_in_source_name_is_data_error(tmp_path, capsys, command, name):
    # With sources a, b and a+b, the subsets {a+b} and {a, b} would both be
    # labelled "a+b", and a label-keyed document would keep one of them.
    sources = ["a", "b", name]
    net = tmp_path / "net.json"
    net.write_text(json.dumps({
        "nodes": [*sources, "t"], "sources": sources, "sinks": ["t"],
        "edges": [{"from": s, "to": "t", "capacity": c} for s, c in zip(sources, "124")]}))
    source = tmp_path / "source.json"
    source.write_text(json.dumps({"sources": sources, "alphabets": [1, 1, 1],
                                  "pmf": [{"symbols": [0, 0, 0], "p": 1}]}))
    setfunc = tmp_path / "setfunc.json"
    setfunc.write_text(json.dumps({"ground": sources, "values": {
        "+".join(S): "1" for S in [["a"], ["b"], [name], ["a", "b"], ["a", name], ["b", name],
                                   ["a", "b", name]]}}))
    argv = {"mincut": ["mincut", "--all", "--network", str(net)],
            "entropy": ["entropy", "--source", str(source)],
            "check": ["check", "--network", str(net), "--source", str(source)],
            "setfunc": ["setfunc", "verify", "--kind", "poly", "--input", str(setfunc)]}[command]
    assert run(argv) == 65
    captured = capsys.readouterr()
    assert captured.err == f"error: source name {name!r} contains a subset separator, '+' or ','\n"
    assert captured.out == ""


_HUGE = "1e10000000"  # 10**10000000: seconds of work inside Fraction if parsed


@pytest.mark.parametrize("command", ["setfunc", "entropy", "mincut"])
def test_huge_exponent_in_document_is_data_error(tmp_path, capsys, command):
    if command == "setfunc":
        doc, argv = {"ground": ["a"], "values": {"a": _HUGE}}, ["setfunc", "verify",
                                                               "--kind", "poly", "--input"]
    elif command == "entropy":
        doc, argv = {"sources": ["a"], "alphabets": [1],
                     "pmf": [{"symbols": [0], "p": _HUGE}]}, ["entropy", "--source"]
    else:
        doc = network_to_document(fixtures.butterfly_network())
        doc["edges"][0]["capacity"] = _HUGE
        argv = ["mincut", "--all", "--network"]
    fn = tmp_path / "doc.json"
    fn.write_text(json.dumps(doc))
    assert run([*argv, str(fn)]) == 65
    _assert_one_line_data_error(capsys)


def test_huge_exponent_in_flag_is_usage_error(paths, capsys):
    assert run(["simulate", "--network", paths["network"], "--source", paths["source"],
                "--n", "2", "--tau", _HUGE]) == 64
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("text, value", [
    ("1e4300", Fraction(10**4300)), ("1e-4300", Fraction(1, 10**4300)),
    ("2.5E+1", Fraction(25)), ("1e4_3_00", Fraction(10**4300)),
])
def test_exponents_up_to_the_limit_parse(text, value):
    assert parse_scalar(text) == value and parse_probability(text) == value


@pytest.mark.parametrize("text", ["1e4301", "1e-4301", "1E+0004301", "1e4_301",
                                  pytest.param("1e" + "9" * 5000, id="5000-digit")])
def test_exponents_past_the_limit_are_rejected(text):
    for parse in (parse_scalar, parse_probability):
        with pytest.raises(ValueError, match="exponent"):
            parse(text)


_ORDER = ["--network", str(DATA / "order_ba.network.json")]
_ORDER_SOURCE = ["--source", str(DATA / "order_ba.source.json")]
# The same model with its sources listed ["a", "b"], against the network's ["b", "a"].
_ORDER_AB_SOURCE = ["--source", str(DATA / "order_ab.source.json")]


@pytest.mark.parametrize("name, argv, code", [
    ("mincut_all_order_ba", ["mincut", "--all", *_ORDER], 0),
    ("mincut_subset_order_ba", ["mincut", "--subset", "b,a", *_ORDER], 0),
    ("mincut_subset_sink_order_ba", ["mincut", "--subset", "a", "--sink", "t2", *_ORDER], 0),
    ("entropy_order_ba", ["entropy", *_ORDER_SOURCE], 0),
    ("entropy_subset_order_ba", ["entropy", "--subset", "a", *_ORDER_SOURCE], 0),
    ("check_order_ba", ["check", *_ORDER, *_ORDER_SOURCE], 1),
    ("simulate_sweep_butterfly", ["simulate", "--network",
                                  str(DATA / "regions_butterfly.network.json"), "--source",
                                  str(DATA / "regions_butterfly.source.json"),
                                  "--sweep", "1,3", "--trials", "30", "--seed", "7"], 0),
    ("check_order_ab", ["check", *_ORDER, *_ORDER_AB_SOURCE], 1),
    ("entropy_order_ab", ["entropy", *_ORDER_AB_SOURCE], 0),
    ("regions_order_ab", ["regions", *_ORDER, *_ORDER_AB_SOURCE], 1),
    ("regions_separation_order_ab", ["regions", "--separation", *_ORDER, *_ORDER_AB_SOURCE], 1),
])
@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("table", "txt")])
def test_cli_output_bytes_are_pinned(capsys, name, argv, code, fmt, ext):
    # order_ba lists its sources as ["b", "a"], so source order and name
    # order differ: mincut --all prints rows in name order, check and
    # entropy in source order.  order_ab's model lists them ["a", "b"]:
    # check labels rows in the model's order, regions in the network's.
    assert run(["--format", fmt, *argv]) == code
    assert capsys.readouterr().out == (DATA / f"cli_{name}.stdout.{ext}").read_text()


_TEN_4300 = "1" + "0" * 4300


@pytest.mark.parametrize("capacity, printed, code", [
    ("1e4300", _TEN_4300, 0),
    ("1e-4300", "1/" + _TEN_4300, 1),
], ids=["1e4300", "1e-4300"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_capacities_of_any_size_give_a_verdict(tmp_path, capsys, capacity, printed, code, fmt):
    # One edge s -> t: float(rho) overflows at 1e4300, and both values have
    # more digits than str(int) converts.
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"nodes": ["s", "t"], "sources": ["s"], "sinks": ["t"],
                               "edges": [{"from": "s", "to": "t", "capacity": capacity}]}))
    source = tmp_path / "source.json"
    source.write_text(json.dumps({"sources": ["s"], "alphabets": [2],
                                  "pmf": [{"symbols": [0], "p": "1/2"},
                                          {"symbols": [1], "p": "1/2"}]}))
    files = ["--network", str(net), "--source", str(source)]
    limit = sys.get_int_max_str_digits()
    for argv, expected in [(["mincut", "--all", "--network", str(net)], 0),
                           (["check", *files], code),
                           (["regions", *files], code),
                           (["regions", "--separation", *files], code)]:
        assert run(["--format", fmt, *argv]) == expected
        captured = capsys.readouterr()
        assert captured.err == ""
        if argv[0] != "regions":  # regions prints rho only in a failing LP's cut row
            assert printed in captured.out
    assert sys.get_int_max_str_digits() == limit


def test_axioms_add_capacities_past_the_float_range_to_inf(tmp_path, capsys):
    # 1e4300 + inf used to convert 1e4300 to a float and die with an
    # OverflowError.  Found by the paired-document fuzz test: b is a source
    # and a sink, so rho_N is 1e4300 on {a}, 0 on {b'} and inf on both.
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"nodes": ["a", "b", "c"], "sources": ["a", "b"],
                               "sinks": ["b", "c"], "edges": [
                                   {"from": "a", "to": "c", "capacity": "inf"},
                                   {"from": "a", "to": "b", "capacity": "1e4300"}]}))
    source = tmp_path / "source.json"
    source.write_text(json.dumps({"sources": ["a", "b"], "alphabets": [1, 1],
                                  "pmf": [{"symbols": [0, 0], "p": "1"}]}))
    assert run(["regions", "--separation", "--network", str(net), "--source", str(source)]) == 0
    assert "rho_N polymatroid: False" in capsys.readouterr().out
    fn = tmp_path / "mixed.json"
    fn.write_text(json.dumps({"ground": ["a", "b"],
                              "values": {"a": "1e4300", "b": "0", "a+b": "inf"}}))
    assert run(["setfunc", "verify", "--kind", "poly", "--input", str(fn)]) == 1
    assert capsys.readouterr().out.strip() == "poly: submodularity fails on (a, b)"
    assert run(["setfunc", "verify", "--kind", "copoly", "--input", str(fn)]) == 0
    assert capsys.readouterr().out.strip() == "copoly: axioms hold"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-09"])
def test_regions_separation_rejects_invalid_tolerance(paths, capsys, tol):
    # separation_check takes no tolerance; the CLI still validates the flag.
    assert run(["regions", "--separation", "--network", paths["network"],
                "--source", paths["source"], f"--tol={tol}"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error: tolerance")


_BUTTERFLY = ["--network", str(DATA / "regions_butterfly.network.json"),
              "--source", str(DATA / "regions_butterfly.source.json")]
_DSBS = ["--network", str(DATA / "regions_dsbs.network.json"),
         "--source", str(DATA / "regions_dsbs.source.json")]


@pytest.mark.parametrize("argv, code", [
    # Index-set exponents whose numerators have 24 and 12 digits.
    ([*_BUTTERFLY, "--n", "2", "--delta", "1/100000000000000000000001"], 0),
    ([*_DSBS, "--sweep", "2,4"], 0),
    ([*_BUTTERFLY, "--sweep", ","], 64),
    ([*_BUTTERFLY, "--sweep", ""], 64),
    ([*_BUTTERFLY, "--n", "-3"], 64),
    ([*_BUTTERFLY, "--sweep", "-1"], 64),
    ([*_BUTTERFLY, "--n", "2", "--tau", "1e4300"], 65),  # default lambda 3*tau/8 too
    ([*_BUTTERFLY, "--n", "2", "--lambda", "1e4300"], 0),
    ([*_BUTTERFLY, "--n", "1000000000"], 65),
], ids=["tiny-delta", "dsbs-sweep", "sweep-comma", "sweep-empty", "n-negative",
        "sweep-negative", "huge-tau", "huge-lambda", "huge-n"])
def test_simulate_flags_end_in_an_exit_code(capsys, argv, code):
    assert run(["simulate", *argv, "--trials", "2"]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == (0 if code == 0 else 1)


@pytest.mark.parametrize("argv, message", [
    (["--tau", "1e-4300"], "typicality slack is positive but underflows a float"),
    (["--lambda", "0"], "typicality slack must be positive"),
], ids=["underflow", "zero"])
def test_simulate_names_why_the_slack_is_rejected(capsys, argv, message):
    # The default lambda 3*tau/8 at tau = 1e-4300 is positive but below the
    # float range, so no float threshold can honour it.
    assert run(["simulate", *_BUTTERFLY, "--n", "2", *argv]) == 64
    assert capsys.readouterr().err == f"usage error: {message}\n"


def _seventeen_sources(tmp_path):
    """A network of 17 sources with one edge each to the sink, and a model
    whose one joint symbol has probability 1."""
    names = [f"s{i}" for i in range(17)]
    network, source = tmp_path / "k17.network.json", tmp_path / "k17.source.json"
    network.write_text(json.dumps({
        "nodes": [*names, "t"], "sources": names, "sinks": ["t"],
        "edges": [{"from": s, "to": "t", "capacity": "1"} for s in names]}))
    source.write_text(json.dumps({
        "sources": names, "alphabets": [1] * 17,
        "pmf": [{"symbols": [0] * 17, "p": "1"}]}))
    return {"network": str(network), "source": str(source)}


def _argv(args, paths):
    return [paths.get(arg, arg) for arg in args]


_NETWORK_AND_SOURCE = ["--network", "network", "--source", "source"]


@pytest.mark.parametrize("args", [
    ["check", *_NETWORK_AND_SOURCE],
    ["mincut", "--network", "network", "--all"],
    ["entropy", "--source", "source"],
    ["regions", *_NETWORK_AND_SOURCE],
    ["regions", "--separation", *_NETWORK_AND_SOURCE],
    ["simulate", *_NETWORK_AND_SOURCE, "--n", "1"],
])
def test_more_sources_than_the_cap_is_data_error(tmp_path, capsys, args):
    assert run(_argv(args, _seventeen_sources(tmp_path))) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 17 sources exceed the subset enumeration bound 16\n"


@pytest.mark.parametrize("args", [
    ["check", *_NETWORK_AND_SOURCE],
    ["mincut", "--network", "network", "--all"],
    ["entropy", "--source", "source"],
    ["regions", *_NETWORK_AND_SOURCE],
])
def test_the_source_cap_is_not_an_option(paths, capsys, args):
    assert run(_argv(args, paths) + ["--max-sources", "16"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: unrecognized arguments: --max-sources 16\n"


@pytest.mark.parametrize("args", [
    ["mincut", "--network", "network", "--all", "--subset", "s1"],
    ["mincut", "--network", "network", "--all", "--sink", "t1"],
    ["mincut", "--network", "network", "--sink", "t1"],
    ["mincut", "--network", "network", "--subset", "s1,s1", "--sink", "t1"],
    ["mincut", "--network", "network", "--subset", ""],
    ["entropy", "--source", "source", "--subset", "s1,s1"],
    ["entropy", "--source", "source", "--subset", ""],
])
def test_subset_flags_that_would_be_ignored_are_usage_errors(paths, capsys, args):
    assert run(_argv(args, paths)) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1


#: Public methods that nothing in src/ calls but that belong to the library
#: face: the README prints ``SimResult.to_json()``, and the other two read
#: one sink's capacity function and a report's verdict.
LIBRARY_METHODS = {"SimResult.to_json", "CapacityProfile.rho_t_function",
                   "TransmissibilityReport.transmissible"}


def test_every_public_function_in_src_has_a_caller_or_is_library_face():
    # A caller is any reference to the name in src/: a call, an attribute
    # read, or a function passed by name.  Test-only helpers live in
    # conftest.py; the library face is netmatch.__all__, the fixtures module
    # and LIBRARY_METHODS.
    defined, referenced = [], set()
    for path in sorted(Path(netmatch.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((path.stem, node.name, node.name))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defined += [(path.stem, f"{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert LIBRARY_METHODS <= {qualified for _, qualified, _ in defined}
    uncalled = [f"{module}.{qualified}" for module, qualified, name in defined
                if not name.startswith("_") and name not in referenced
                and module != "fixtures" and qualified not in netmatch.__all__
                and qualified not in LIBRARY_METHODS]
    assert uncalled == []
