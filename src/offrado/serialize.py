"""Rational string forms and canonical JSON shared by every file format.
Every rational is written by ``format_ratio``, from a numerator and a
denominator: grid ids p over d, or a ``Fraction`` via ``format_rational``."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse an integer or p/q literal in ASCII digits and nothing else;
    decimals, a trailing newline and other digit scripts are rejected."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not an exact rational literal: {text!r}")
    num, _, den = text.partition("/")
    if den:
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def format_ratio(p: int, q: int) -> str:
    """The value p/q, for q > 0, as "p/q" in lowest terms, or the bare
    integer when q divides p."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def format_rational(value: Fraction) -> str:
    """``format_ratio`` of the value's numerator and denominator."""
    value = Fraction(value)
    return format_ratio(value.numerator, value.denominator)


def exact_fraction(value) -> Fraction:
    """Coerce int/str/Fraction to Fraction, refusing floats.

    Floats would smuggle binary rounding into verification paths, so they are
    a type error here rather than a silent conversion.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, float):
        raise TypeError(f"floats are not exact: {value!r}; pass a Fraction or a 'p/q' string")
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def canonical_json(payload) -> str:
    """Sorted keys, no whitespace variation; byte-stable across runs."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
