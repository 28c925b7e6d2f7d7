"""Parsing and formatting of exact numbers.

Every exact quantity crosses the JSON/CSV boundary as a ``"p/q"`` string;
decimal renderings (20 significant digits) are annotations only
and never feed back into any computation.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

DECIMAL_DIGITS = 20

_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\Z", re.IGNORECASE)
_DIGIT_RUN = re.compile(r"\d(?:_?\d)*")
# an error message echoes at most this many characters of the literal
_QUOTED_CHARS = 40


def digit_limit() -> int:
    """Python's integer-string limit (4300 by default): most digits a part may print."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _quoted(text) -> str:
    """repr of a literal for an error message, cut short when it is long."""
    text = str(text)
    return repr(text) if len(text) <= _QUOTED_CHARS else f"{text[:_QUOTED_CHARS]!r}..."


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (or a bare integer literal) into an exact Fraction.

    The numerator and denominator may have at most as many digits as the
    integer-string limit (4300 by default), so that the value can be printed.
    A longer digit run, or an exponent past that limit, is rejected before
    it is expanded: "1e1000000000" would build a billion-digit integer.
    """
    if isinstance(text, float):
        raise TypeError("floating-point input rejected; pass an exact 'p/q' string")
    literal = str(text).strip()
    limit = digit_limit()
    if any(len(run.replace("_", "")) > limit for run in _DIGIT_RUN.findall(literal)):
        raise ValueError(f"a number has a run of more than {limit} digits")
    exp = _EXPONENT.search(literal)
    if exp and abs(int(exp[1])) > limit:
        raise ValueError(f"exponent of {_quoted(text)} exceeds {limit} in magnitude")
    try:
        q = Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational 'p/q' value: {_quoted(text)}") from exc
    # below 8**limit, so 3*limit bits, a part has at most limit digits
    big = max(abs(q.numerator), q.denominator)
    if big.bit_length() > 3 * limit and big >= 10**limit:
        raise ValueError(f"{_quoted(text)} has a numerator or denominator over {limit} digits")
    return q


def rational_str(q: Fraction) -> str:
    """Canonical ``"p/q"`` form, denominator always present and positive."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def decimal_str(q: Fraction) -> str:
    """Decimal expansion of a rational, rounded to ``DECIMAL_DIGITS`` significant digits."""
    q = Fraction(q)
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return str(Decimal(q.numerator) / Decimal(q.denominator))


def surd_decimal_str(coeff: Fraction, radicand: int) -> str:
    """Decimal expansion of ``coeff * sqrt(radicand)``, like :func:`decimal_str`."""
    if radicand < 0:
        raise ValueError("radicand must be non-negative")
    if radicand == 1:  # rounded once, not to 30 digits and then to 20
        return decimal_str(coeff)
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS + 10
        value = Decimal(coeff.numerator) / Decimal(coeff.denominator) * Decimal(radicand).sqrt()
        ctx.prec = DECIMAL_DIGITS
        return str(+value)
