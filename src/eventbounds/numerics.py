"""Shared arithmetic helpers: exact rationals, floats, and tolerant compares.

Two arithmetic modes coexist throughout the package:

* exact mode: values are rational numbers and every comparison is exact;
* float mode: values are 64-bit floats and comparisons allow the absolute
  tolerance ``DEFAULT_TOLERANCE``, the package's one float slack.

A value's mode is decided by its type: ``float`` means float mode, anything
rational means exact mode.  Exact values are ``fractions.Fraction``s,
created through :func:`rational`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

#: The exact rational type's name, which benchmark runs record.
RATIONAL_BACKEND = "fractions"

#: Exact rational number.
rational = Fraction

#: Absolute tolerance used for float-mode comparisons and validations.
DEFAULT_TOLERANCE = 1e-9

#: Values flowing through the package are either exact rationals or floats.
Number = Union[Fraction, float]


def all_exact(values: Iterable[object]) -> bool:
    """True when every value is an int or exact rational (not a bool or float)."""
    return all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in values)


def to_number(value: object) -> Number:
    """Coerce a scalar from user input into package arithmetic.

    ints and rationals become exact rationals; floats stay floats; strings
    are parsed as exact rationals ("3/8", "3", "0.375" are all accepted).
    A ``Fraction`` is returned as is.
    """
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse {value!r} as a rational number") from exc
    if isinstance(value, bool):
        raise ValueError(f"boolean {value!r} is not a number")
    if isinstance(value, float) or type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return rational(value)
    raise ValueError(f"unsupported numeric value {value!r}")


def over_common_denominator(values: Sequence[Number]) -> tuple[tuple[int, ...], int]:
    """Exact values as integer numerators over their least common denominator."""
    denominator = math.lcm(*(int(x.denominator) for x in values))
    numerators = tuple(int(x.numerator) * (denominator // int(x.denominator)) for x in values)
    return numerators, denominator


def exactify(value: float) -> Fraction:
    """The exact rational with the float's shortest decimal text, as the CLI
    flag that forces exact arithmetic reads each float literal."""
    return Fraction(repr(value))


def encode_number(value: Number) -> object:
    """JSON-ready form: rationals as strings ("3/8"), floats as floats."""
    if isinstance(value, float):
        return value
    return str(value)


def zero(exact: bool) -> Number:
    return rational(0) if exact else 0.0


def clamp01(value: Number) -> Number:
    """Clip a raw bound value to [0, 1], preserving arithmetic mode."""
    if isinstance(value, float):
        return min(1.0, max(0.0, value))
    if value < 0:
        return rational(0)
    if value > 1:
        return rational(1)
    return value


_ZERO = rational(0)


def dot_product(coefficients: Sequence[Number], values: Sequence[Number]) -> Number:
    """Scalar product that keeps exact mode exact and float mode float.

    ``families`` evaluates every cached float row (closed form, search or
    full order) in this same order of operations, at any row length, so
    its float values agree bit for bit with this function's.
    """
    k = len(coefficients)
    if k != len(values):
        raise ValueError(f"length mismatch: {k} coefficients, {len(values)} values")
    if any(isinstance(x, float) for x in (*coefficients, *values)):
        return sum(float(c) * float(v) for c, v in zip(coefficients, values))
    total = _ZERO
    for c, v in zip(coefficients, values):
        total += c * v
    return total


def integer_bracket(numerator: Number, denominator: Number, lo: int, hi: int) -> tuple[int, ...]:
    """Integers m in [lo, hi] satisfying m-1 <= numerator/denominator <= m.

    Requires denominator > 0 and lo <= hi.  When the quotient is itself an
    integer t, both t and t+1 satisfy the bracket and both are returned
    (after clamping); otherwise the single admissible integer is returned.
    A quotient outside [lo-1, hi+1] clamps to the nearest endpoint.  Exact
    arguments (ints or rationals) are bracketed by floor division, with no
    rational quotient.
    """
    if lo > hi:
        raise ValueError(f"empty bracket range [{lo}, {hi}]")
    if isinstance(numerator, float) or isinstance(denominator, float):
        if float(denominator) <= 0.0:
            raise ValueError("bracket denominator must be positive")
        quotient = float(numerator) / float(denominator)
        floor_q = math.floor(quotient)
        integral = quotient == floor_q
    else:
        if denominator <= 0:
            raise ValueError("bracket denominator must be positive")
        floor_q, remainder = divmod(numerator, denominator)
        floor_q, integral = int(floor_q), remainder == 0
    above = min(hi, max(lo, floor_q + 1))
    if not integral:
        return (above,)
    below = min(hi, max(lo, floor_q))
    return (below,) if below == above else (below, above)


def leq(a: Number, b: Number) -> bool:
    """a <= b, exactly for rationals, within the tolerance when a float is involved."""
    if isinstance(a, float) or isinstance(b, float):
        return float(a) <= float(b) + DEFAULT_TOLERANCE
    return a <= b


def close(a: Number, b: Number) -> bool:
    """Equality, exact for rationals, absolute-tolerance for floats."""
    if isinstance(a, float) or isinstance(b, float):
        return abs(float(a) - float(b)) <= DEFAULT_TOLERANCE
    return a == b
