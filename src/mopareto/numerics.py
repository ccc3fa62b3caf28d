"""Exact rational arithmetic for dominance checks and grid placement.

Every objective value, tolerance, budget and grid anchor in this package is an
`int` or a `fractions.Fraction` (`_positive`), and every count an `int` (`_integer`),
by exact type: a bool, a subclass or a look-alike is no number.  Comparisons are
therefore bit-exact: two distinct values of bounded encoding length differ by an
observable margin, and no decision anywhere depends on floating point.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import isqrt

__all__ = [
    "parse_rational",
    "render_rational",
    "exact_sqrt",
    "half_step_delta",
]

# integer ("5"), fraction ("3/2"), or finite decimal ("1.25"), optionally signed
_RATIONAL_FORM = re.compile(r"([+-]?)(\d+)(?:/(\d+)|\.(\d+))?")

# dyadic denominator used when a slack factor has no exact rational square root
_LADDER_BITS = 40

# CPython refuses int/str conversions past sys.get_int_max_str_digits() digits
_DIGIT_LIMIT = "a number has more than {} digits, the interpreter's int/str conversion limit"


def _positive(value: object, what: str) -> int | Fraction:
    """value, if a positive int or Fraction; a bool or subclass, a float (even 1.0), a
    Decimal, a NaN, an infinity, a str or None is a ValueError before any comparison."""
    if type(value) not in (int, Fraction):
        raise ValueError(f"{what} must be an int or a Fraction, got {value!r}")
    if value <= 0:
        raise ValueError(f"{what} must be positive")
    return value


def _integer(value: object, what: str) -> int:
    """value, if an int; a bool (which JSON writes as true), an IntEnum member, a float
    (even 2.0) or a Fraction is a ValueError.  Callers check range."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, got {value!r}")
    return value


def parse_rational(text: str) -> Fraction:
    """Parse "5", "3/2", or "1.25" into an exact Fraction.

    Decimals are expanded exactly, never rounded.  Raises ValueError for
    malformed text and for a zero denominator.
    """
    m = _RATIONAL_FORM.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    sign, whole, den, frac = m.groups()
    scale = 10 ** len(frac or "")
    try:  # a decimal's two parts each meet the digit limit alone, as in Fraction(str)
        num = int(whole) * scale + int(frac or 0)
        return Fraction(-num if sign == "-" else num, int(den or 1) * scale)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None
    except ValueError:  # the form is valid, so only the digit limit gets here
        raise ValueError(_DIGIT_LIMIT.format(sys.get_int_max_str_digits())) from None


def render_rational(r: int | Fraction) -> str:
    """Canonical text form, str(r): "num" when the denominator is 1, else "num/den"."""
    try:
        return str(r)
    except ValueError:
        raise ValueError(_DIGIT_LIMIT.format(sys.get_int_max_str_digits())) from None


def exact_sqrt(r: Fraction) -> Fraction | None:
    """The rational square root of r when one exists, else None."""
    if r < 0:
        raise ValueError("square root of a negative rational")
    root_num = isqrt(r.numerator)
    root_den = isqrt(r.denominator)
    if root_num * root_num == r.numerator and root_den * root_den == r.denominator:
        return Fraction(root_num, root_den)
    return None


def half_step_delta(eps: Fraction) -> Fraction:
    """Largest usable step delta with (1 + delta)**2 <= 1 + eps.

    Splitting an approximation budget over two stages needs a delta whose
    square stays inside the budget.  When 1 + eps is a rational square the
    slack is exact; otherwise the best dyadic delta with denominator
    2**40 is returned (coarser dyadic rungs are subsumed by the finest one).
    """
    target = 1 + _positive(eps, "eps")
    root = exact_sqrt(target)
    if root is not None:
        return root - 1
    n = 1 << _LADDER_BITS
    root_floor = isqrt(n * n * target.numerator // target.denominator)
    delta = Fraction(root_floor - n, n)
    if delta <= 0:
        raise ValueError(f"eps={eps} is too small for the dyadic delta ladder")
    return delta
