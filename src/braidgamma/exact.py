"""Small exact-arithmetic helpers shared by the geometry modules."""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError, WordSyntaxError
from .words import parse_uint


def sign(x) -> int:
    return (x > 0) - (x < 0)


def rat_from_str(text: str) -> Fraction:
    """Parse "p/q" or a bare integer "p": ASCII digits, an optional leading
    "-", and a positive denominator; nothing else (no spaces, "+" or "_")."""
    if not isinstance(text, str):
        raise ValidationError(f"bad rational literal {text!r}: expected a string")
    try:
        start = 1 if text.startswith("-") else 0
        num, i = parse_uint(text, start)
        den = 1
        if i < len(text) and text[i] == "/":
            den, i = parse_uint(text, i + 1)
        if i != len(text):
            raise WordSyntaxError("unexpected character", i)
    except WordSyntaxError as exc:
        raise ValidationError(f"bad rational literal {text!r}: {exc}") from None
    if den == 0:
        raise ValidationError(f"bad rational literal {text!r}: zero denominator")
    return Fraction(-num if start else num, den)


def rat_to_str(x: Fraction) -> str:
    """Reduced "p/q" form with positive denominator (q = 1 kept explicit)."""
    return f"{x.numerator}/{x.denominator}"
