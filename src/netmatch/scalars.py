"""Exact scalar values used throughout: nonnegative rationals plus infinity.

Finite quantities (capacities, cut values, rate bounds) are
:class:`fractions.Fraction`; the single infinite sentinel is ``math.inf``,
which orders above every rational and absorbs addition, exactly the
semantics needed for capacity arithmetic.  Entropies are ordinary floats
and are snapped to rationals only at the LP boundary.  Every exact
decision runs on the integers of one rule, :func:`integer_ratios`.

A caller's number enters by one rule, :func:`admit`: every constructor,
tolerance and simulator parameter keeps only the plain number it returns.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np

INF = math.inf

#: Denominator used when snapping float-valued bounds to exact rationals.
SNAP_DENOMINATOR = 10**12

#: Largest decimal exponent magnitude accepted in a rational string, the
#: same as Python's limit on the digits of an int parsed from a string.
#: ``Fraction`` computes 10**exponent, so "1e10000000" alone takes seconds.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\Z")
#: The rationals documents write almost always: ASCII digits, and an
#: optional ASCII-digit denominator.
_STRICT_RATIONAL = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def is_inf(x) -> bool:
    return isinstance(x, float) and math.isinf(x)


def parse_scalar(value, *, allow_inf: bool = True):
    """Parse a capacity/bound value from a document field.

    Accepts an ``int``, a rational string (``"1"``, ``"3/2"``, ``"0.25"``)
    or ``"inf"``.  JSON floats are rejected: exact inputs must be written
    as strings so nothing is silently rounded.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a numeric value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if value.strip().lower() in ("inf", "infinity"):
            if not allow_inf:
                raise ValueError("infinite value not allowed here")
            return INF
        return _rational(value)
    if isinstance(value, float):
        raise ValueError(
            f"float {value!r} is not exact; write it as a rational string like \"1/4\""
        )
    raise ValueError(f"not a numeric value: {value!r}")


#: The types :func:`admit` returns.
PLAIN_TYPES = frozenset((int, Fraction, float))


def admit(value, role: str):
    """``value`` as the int, Fraction, finite float or INF it stands for as a
    "capacity", "probability", "value" (of a set function), "tolerance" or
    "parameter" (of the simulator); a numpy scalar as its ``.item()``.

    Other types (``bool`` too), NaN and -inf are refused; so are negative
    values but parameters, and infinities but capacities and values.  The
    ValueError names the fault and role ("negative capacity"), or a
    tolerance's Python value, for the caller to say where it stood.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if type(value) not in PLAIN_TYPES:
        raise ValueError(f"{role} {value!r} is not a Fraction, int or float")
    inf_ok, signed = role in ("capacity", "value"), role == "parameter"
    # Not NaN, +inf only where it may stand, and negative (never -inf) only if signed.
    if value == value and (inf_ok or value < INF) and (value >= 0 or signed and value > -INF):
        return value
    if role == "tolerance":
        raise ValueError(f"tolerance must be finite and nonnegative, got {value!r}")
    if not (inf_ok or -INF < value < INF):  # NaN fails too
        raise ValueError(f"non-finite {role}")
    raise ValueError(f"{'NaN' if value != value else 'negative'} {role}")


def check_tolerance(tol):
    """``tol`` admitted as a tolerance: against NaN, inf or a negative one,
    every margin would still yield a verdict."""
    return admit(tol, "tolerance")


def integer_ratios(values) -> tuple[list[int], int]:
    """Ints, Fractions and finite floats (each the dyadic rational it is)
    as ``(numerators, den)``: ``den`` is the lcm of their denominators (1
    for none), and ``numerators[i] / den == values[i]`` exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    distinct = {d for _, d in ratios}
    den = math.lcm(*distinct)
    scale = {d: den // d for d in distinct}
    return [n * scale[d] for n, d in ratios], den


def parse_probability(value):
    """Parse a pmf entry: JSON number, or exact rational string."""
    if isinstance(value, str):
        return _rational(value)
    if isinstance(value, bool):
        raise ValueError(f"not a probability: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    raise ValueError(f"not a probability: {value!r}")


def _rational(value: str) -> Fraction:
    """``Fraction(value)``, refusing decimal exponents past MAX_EXPONENT.

    A strict ``digits[/digits]`` string, the form documents almost always
    use, is read as ``Fraction(int(a), int(b))`` without ``Fraction``'s
    general parser; any other text (signs, spaces, ``_``, decimals,
    exponents, non-ASCII digits) goes through it.  Both give the same value,
    and on a zero denominator or a digit string past Python's int limit
    the same message.
    """
    strict = _STRICT_RATIONAL.fullmatch(value)
    if strict is None:
        text = value.strip()
        match = _EXPONENT.search(text)
        if match:
            digits = match.group(1).replace("_", "").lstrip("0")
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
                raise ValueError(f"exponent of {value!r} exceeds {MAX_EXPONENT} in magnitude")
    try:
        if strict is not None:
            numerator, denominator = strict.groups()
            return Fraction(int(numerator), int(denominator or 1))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational value: {value!r}") from exc


def snap_to_rational(x) -> Fraction:
    """Round a float onto the grid of multiples of 1/SNAP_DENOMINATOR.

    Exact inputs (Fraction/int) pass through unchanged.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if is_inf(x):
        raise ValueError("cannot snap infinity to a rational")
    return Fraction(round(x * SNAP_DENOMINATOR), SNAP_DENOMINATOR)


def to_float(x) -> float:
    """``float(x)``, or infinity of the sign of ``x`` when the rational ``x``
    is too large in magnitude for a float: the IEEE rounding of ``x``."""
    try:
        return float(x)
    except OverflowError:
        return INF if x > 0 else -INF


def round_float(x) -> float:
    """``x`` rounded to 9 significant digits, the precision outputs print.

    ``f"{round_float(x):.9g}" == f"{x:.9g}"``, so a table printed from a
    document's rounded floats shows the digits the document holds.
    """
    return float(f"{float(x):.9g}")


def format_scalar(x) -> str:
    """Render a value for tables and structured documents.

    Rationals print exactly (``"3/2"``), with every digit however many
    there are; floats print to 9 significant digits; infinity prints
    ``"inf"``.
    """
    if is_inf(x):
        return "inf"
    if isinstance(x, (Fraction, int)):
        # str(int) refuses more than sys.get_int_max_str_digits() digits; Decimal does not.
        digits = str(Decimal(x.numerator))
        return digits if x.denominator == 1 else f"{digits}/{Decimal(x.denominator)}"
    return f"{float(x):.9g}"
