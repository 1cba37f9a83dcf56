"""The admission rule for a caller's numbers, and the exact scaling rule:
values as integers over one common denominator."""

import ast
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import netmatch
from netmatch import fixtures
from netmatch.entropy import SourceModel
from netmatch.errors import NetmatchError
from netmatch.graph import Edge, Network
from netmatch.mincut import capacity_profile
from netmatch.regions import sandwich_feasible
from netmatch.scalars import INF, admit, check_tolerance, integer_ratios
from netmatch.setfunc import SetFunction, is_copolymatroid, is_polymatroid
from netmatch.simulator import estimate_error
from netmatch.transmissibility import check

_EXACT = (st.integers(-2**80, 2**80)
          | st.fractions(max_denominator=10**30)
          | st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(_EXACT, max_size=12))
@example(values=[])
@example(values=[5e-324, 2.2250738585072014e-308, 2.0**1000, 1.7976931348623157e308])
@example(values=[Fraction(1, 3), 0.1, 2**70, -5e-324, Fraction(-7, 2**1074)])
@example(values=[Fraction(1, 6), Fraction(1, 10), Fraction(1, 15), 0.5])
def test_integer_ratios_is_exact_over_the_lcm(values):
    numerators, den = integer_ratios(values)
    assert len(numerators) == len(values)
    assert [Fraction(n, den) for n in numerators] == [Fraction(v) for v in values]
    assert den == math.lcm(*(Fraction(v).denominator for v in values))
    assert all(type(n) is int for n in numerators) and type(den) is int


@pytest.mark.parametrize("tol, value", [
    (np.float32(0.5), 0.5), (np.float64(0.25), 0.25), (np.int64(2), 2), (np.int64(0), 0)])
def test_a_numpy_tolerance_is_checked_as_its_python_value(tol, value):
    checked = check_tolerance(tol)
    assert type(checked) is type(value) and checked == value


NAN = math.nan


@pytest.mark.parametrize("value, role, admitted", [
    (np.int64(3), "capacity", 3), (np.uint8(3), "value", 3), (np.float32(0.5), "probability", 0.5),
    (np.float16(0.25), "tolerance", 0.25), (Fraction(1, 3), "probability", Fraction(1, 3)),
    (2**70, "capacity", 2**70), (INF, "capacity", INF), (np.float64(INF), "value", INF),
    (-2, "parameter", -2), (np.float32(-0.5), "parameter", -0.5),
])
def test_admit_returns_a_plain_number(value, role, admitted):
    got = admit(value, role)
    assert got == admitted and type(got) is type(admitted)


@pytest.mark.parametrize("value, role, message", [
    (True, "capacity", "capacity True is not a Fraction, int or float"),
    (np.bool_(False), "probability", "probability False is not a Fraction, int or float"),
    (Decimal("0.5"), "value", "value Decimal('0.5') is not a Fraction, int or float"),
    ("1", "tolerance", "tolerance '1' is not a Fraction, int or float"),
    (None, "parameter", "parameter None is not a Fraction, int or float"),
    (np.longdouble(1), "capacity", None),
    (NAN, "capacity", "NaN capacity"), (np.float32(NAN), "value", "NaN value"),
    (NAN, "parameter", "non-finite parameter"), (INF, "parameter", "non-finite parameter"),
    (NAN, "probability", "non-finite probability"),
    (INF, "probability", "non-finite probability"), (-INF, "probability", "non-finite probability"),
    (-INF, "capacity", "negative capacity"), (-INF, "parameter", "non-finite parameter"),
    (Fraction(-1, 3), "value", "negative value"), (np.int8(-1), "probability", "negative probability"),
    (Fraction(-10**400, 3), "probability", "negative probability"),
    (np.float32(NAN), "tolerance", "tolerance must be finite and nonnegative, got nan"),
    (INF, "tolerance", "tolerance must be finite and nonnegative, got inf"),
    (np.int64(-1), "tolerance", "tolerance must be finite and nonnegative, got -1"),
    (np.float64(-1), "tolerance", "tolerance must be finite and nonnegative, got -1.0"),
])
def test_admit_refuses_by_a_message_of_the_python_value(value, role, message):
    with pytest.raises(ValueError) as caught:
        admit(value, role)
    if message is None:  # a numpy scalar of no Python type; its repr varies with numpy
        assert str(caught.value).endswith(" is not a Fraction, int or float")
    else:
        assert str(caught.value) == message


def _names_numpy_generic(path: Path) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == "generic"
               or isinstance(node, ast.alias) and node.name == "generic"
               for node in ast.walk(ast.parse(path.read_text())))


def test_only_scalars_names_numpy_scalars():
    # Every caller's number is admitted by scalars.admit, so no other module
    # tests for, or converts, a numpy scalar.
    src = Path(netmatch.__file__).parent
    assert {p.stem for p in src.glob("*.py") if _names_numpy_generic(p)} == {"scalars"}


def test_fixture_parameters_are_admitted():
    # Fraction() used to raise TypeError on a numpy scalar, and took True as 1.
    assert fixtures.dsbs_source(np.float32(0.125)) == fixtures.dsbs_source(Fraction(1, 8))
    assert fixtures.scaled_butterfly(np.int64(2)) == fixtures.scaled_butterfly(2)
    for build in (fixtures.dsbs_source, fixtures.scaled_butterfly):
        with pytest.raises(ValueError, match="^parameter True is not a Fraction, int or float$"):
            build(True)


_KINDS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
          np.float16, np.float32, np.float64, np.bool_)
_BUTTERFLY_EDGES = (("s1", "u"), ("s2", "u"), ("u", "w"), ("w", "t1"), ("w", "t2"),
                    ("s1", "t1"), ("s2", "t2"))
_SYMBOLS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _numbers(kind, valid: bool):
    """Python values that ``kind`` holds, all of them nonnegative and not
    NaN if ``valid``; the property maps each through ``kind``."""
    if kind is np.bool_:
        return st.booleans()
    if issubclass(kind, np.integer):
        return st.integers(0 if valid or issubclass(kind, np.unsignedinteger) else -1, 3)
    return st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.5, 3.0, INF)
                           + (() if valid else (-0.5, NAN, -INF)))


def _stored(obj) -> list:
    """The types of the numbers a constructor stored."""
    if isinstance(obj, Network):
        return [type(e.capacity) for e in obj.edges]
    if isinstance(obj, SourceModel):
        return [type(p) for p in obj.pmf.values()]
    return [type(v) for v in obj.values]


def _library_run(kind, caps, pmf, sigma, rho, params, plain: bool) -> list:
    """What each constructor and consumer gives on the numpy scalars, or on
    their ``.item()`` if ``plain``: a repr (and, for a constructor, the
    types it stored), or the type and message of the error raised."""
    to = (lambda v: v.item()) if plain else (lambda v: v)
    out = []

    def attempt(call, constructor=False):
        try:
            result = call()
        except (NetmatchError, ValueError) as exc:
            out.append((type(exc).__name__, str(exc)))
            return None
        out.append((repr(result), _stored(result) if constructor else None))
        return result

    net = attempt(lambda: Network(
        nodes=("s1", "s2", "u", "w", "t1", "t2"), sources=("s1", "s2"), sinks=("t1", "t2"),
        edges=[Edge(t, h, to(c)) for (t, h), c in zip(_BUTTERFLY_EDGES, caps)]), True)
    model = attempt(lambda: SourceModel(("s1", "s2"), (2, 2), dict(zip(_SYMBOLS, map(to, pmf)))),
                    True)
    functions = [attempt(lambda v=v: SetFunction(("a", "b"), [to(kind(0)), *map(to, v)]), True)
                 for v in (sigma, rho)]
    tol, tau, delta, lam = map(to, params)
    if net is not None:
        attempt(lambda: capacity_profile(net))
        if model is not None:
            attempt(lambda: check(net, model, tol))
            attempt(lambda: estimate_error(net, model, 2, tau, delta, lam, 5, 1).to_json())
    for f in filter(None, functions):
        attempt(lambda: is_polymatroid(f, tol))
        attempt(lambda: is_copolymatroid(f, tol))
    if None not in functions:
        attempt(lambda: sandwich_feasible(*functions, tol))
    return out


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(_KINDS))
def test_numpy_scalars_give_what_their_python_values_give(data, kind):
    # Each constructor admits numpy scalars of every kind as their .item(),
    # and each consumer then gives the same result, or the same refusal.
    def draw(size):
        valid = data.draw(st.booleans())
        return [kind(v) for v in data.draw(st.lists(_numbers(kind, valid), min_size=size,
                                                    max_size=size))]
    # A pmf that sums to 1 (uniform in floats, a point mass otherwise) and
    # tol, tau, delta, lambda that a simulation runs on, or any values.
    floating = issubclass(kind, np.floating)
    pmf = [kind(0.25)] * 4 if floating else [kind(0), kind(1), kind(0), kind(0)]
    params = [kind(v) for v in ((0, 0.5, 0.25, 1.5) if floating else (0, 2, 1, 1))]
    pmf = data.draw(st.sampled_from([pmf, draw(4)]))
    params = data.draw(st.sampled_from([params, draw(4)]))
    args = (kind, draw(7), pmf, draw(3), draw(3), params)
    numpy_run = _library_run(*args, plain=False)
    assert numpy_run == _library_run(*args, plain=True)
