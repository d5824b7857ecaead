"""Rational string forms and canonical JSON shared by every file format."""

from __future__ import annotations

import json
import re
from fractions import Fraction

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


def format_rational(value: Fraction) -> str:
    """Lowest-terms "p/q", or the bare integer when q = 1."""
    return str(Fraction(value))


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
