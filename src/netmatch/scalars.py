"""Exact scalar values used throughout: nonnegative rationals plus infinity.

Finite quantities (capacities, cut values, rate bounds) are
:class:`fractions.Fraction`; the single infinite sentinel is ``math.inf``,
which orders above every rational and absorbs addition, exactly the
semantics needed for capacity arithmetic.  Entropies are ordinary floats
and are snapped to rationals only at the LP boundary.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction

INF = math.inf

#: Denominator used when snapping float-valued bounds to exact rationals.
SNAP_DENOMINATOR = 10**12

#: Largest decimal exponent magnitude accepted in a rational string, the
#: same as Python's limit on the digits of an int parsed from a string.
#: ``Fraction`` computes 10**exponent, so "1e10000000" alone takes seconds.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\Z")


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
        text = value.strip()
        if text.lower() in ("inf", "infinity"):
            if not allow_inf:
                raise ValueError("infinite value not allowed here")
            return INF
        return _rational(value, text)
    if isinstance(value, float):
        raise ValueError(
            f"float {value!r} is not exact; write it as a rational string like \"1/4\""
        )
    raise ValueError(f"not a numeric value: {value!r}")


def check_tolerance(tol):
    """Return ``tol`` if it is a finite nonnegative number.

    Raises ValueError for NaN, infinities and negative values: compared
    against such a tolerance, every margin would still yield a verdict.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")
    return tol


def parse_probability(value):
    """Parse a pmf entry: JSON number, or exact rational string."""
    if isinstance(value, bool):
        raise ValueError(f"not a probability: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return _rational(value, value.strip())
    raise ValueError(f"not a probability: {value!r}")


def _rational(value, text: str) -> Fraction:
    """``Fraction(text)``, refusing decimal exponents past MAX_EXPONENT."""
    match = _EXPONENT.search(text)
    if match:
        digits = match.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ValueError(f"exponent of {value!r} exceeds {MAX_EXPONENT} in magnitude")
    try:
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
