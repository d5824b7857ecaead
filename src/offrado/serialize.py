"""Rational string forms and the JSON text of every file format.

Every rational is written by ``format_ratio``, from a numerator and a
denominator: grid ids p over d, or a ``Fraction`` via ``format_rational``, and
read by ``parse_ratio`` back to a reduced (numerator, denominator) pair.  A
document is written by ``canonical_json`` and read by ``read_json``, which
walks a certificate's branch nodes on an explicit stack, so their depth is
bounded by memory, not by the interpreter's recursion limit, and reads each
repeated leaf tail once."""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

_scan = json.JSONDecoder().scan_once  # json's own C scanner, as json.loads runs it
_string = json.decoder.scanstring
_space = json.decoder.WHITESPACE.match


def _digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def parse_ratio(text: str) -> tuple[int, int]:
    """The reduced (numerator, denominator) of an integer or p/q literal in
    ASCII digits, [+-]?[0-9]+(/[0-9]+)?, and nothing else; decimals, a
    trailing newline, an underscore and other digit scripts are rejected."""
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        if _digits(num[1:] if num[:1] in ("+", "-") else num) and (not slash or _digits(den)):
            n, d = int(num), int(den) if slash else 1
            if d == 0:
                raise ValueError(f"zero denominator: {text!r}")
            g = gcd(n, d)
            return n // g, d // g
    raise ValueError(f"not an exact rational literal: {text!r}")


def parse_rational(text: str) -> Fraction:
    """``parse_ratio``'s value as a ``Fraction``."""
    return Fraction(*parse_ratio(text))


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


# How read_json reads a value, by where it sits: the document, an array of
# branch nodes, a branch node, or anything else, which json's scanner reads
# whole
_DOC, _NODES, _NODE = "doc", "nodes", "node"
_INNER = {_DOC: {"root": _NODES}, _NODE: {"children": _NODES}}
_HEAD = 32  # the characters of a leaf tail's text that find its candidate
_WS = frozenset(" \t\n\r")  # json's whitespace


def _member(s: str, idx: int) -> tuple[str, int]:
    """An object's key at idx and the index of its value; StopIteration when
    there is none."""
    if s[idx:idx + 1] != '"':
        raise StopIteration
    key, idx = _string(s, idx + 1)
    if s[idx:idx + 1] != ":":
        idx = _space(s, idx).end()
        if s[idx:idx + 1] != ":":
            raise StopIteration
    idx += 1
    if s[idx:idx + 1] in _WS:
        idx = _space(s, idx).end()
    return key, idx


def _walk(s: str):
    """The document of ``read_json``, or StopIteration where the walk finds
    no JSON; json's scanner raises its own errors inside a value."""
    tails: dict[str, tuple] = {}  # a leaf tail's first _HEAD characters -> (its text, its members)
    stack: list[tuple] = []  # the open containers on the node path that enclose this one
    container = kind = key = None  # the innermost open container, its mode, its pending key
    # where the open node's tail starts, at the last separator before which
    # it has one key, and how many members the walk has read since
    start = after = 0
    idx, mode = _space(s, 0).end(), _DOC
    while True:
        c = s[idx:idx + 1]
        if (c == "{" and (mode is _DOC or mode is _NODE)) or (c == "[" and mode is _NODES):
            idx += 1
            if s[idx:idx + 1] in _WS:
                idx = _space(s, idx).end()
            if s[idx:idx + 1] != ("]" if c == "[" else "}"):
                stack.append((container, kind, key))
                if c == "[":
                    container, kind, mode = [], _NODES, _NODE
                else:
                    container, kind = {}, mode
                    key, idx = _member(s, idx)
                    mode = _INNER[kind].get(key)
                continue
            value, idx = ([] if c == "[" else {}), idx + 1
        else:
            value, idx = _scan(s, idx)
        # the value is read: store it, and close each container it completes
        while kind is not None:
            if kind is _NODES:
                container.append(value)
            else:
                container[key] = value
            c = s[idx:idx + 1]
            if c in _WS:
                idx = _space(s, idx).end()
                c = s[idx:idx + 1]
            if c == ",":
                after += 1
                if kind is _NODE and len(container) == 1:
                    # a tail ends at its node's closing brace, so text that
                    # starts with a read leaf's tail is its members again
                    seen = tails.get(s[idx:idx + _HEAD])
                    if seen is not None and s.startswith(seen[0], idx):
                        container.update(seen[1])
                        value, idx = container, idx + len(seen[0])
                        container, kind, key = stack.pop()
                        continue
                    start, after = idx, 1
                idx += 1
                if s[idx:idx + 1] in _WS:
                    idx = _space(s, idx).end()
                if kind is _NODES:
                    mode = _NODE
                else:
                    key, idx = _member(s, idx)
                    mode = _INNER[kind].get(key)
                break
            if c != ("]" if kind is _NODES else "}"):
                raise StopIteration
            idx += 1
            # a node without children nests no node, so start and after are
            # its own; a tail that repeats a key leaves the node fewer than
            # after + 1 keys, and is not kept
            if kind is _NODE and len(container) == after + 1 > 1 and "children" not in container:
                tails[s[start:start + _HEAD]] = s[start:idx], list(container.items())[1:]
            value = container
            container, kind, key = stack.pop()
        else:
            if _space(s, idx).end() != len(s):
                raise StopIteration
            return value


def read_json(text: str):
    """The document ``json.loads(text)`` returns, or the error it raises.

    Branch nodes, the elements of the document's ``root`` and of every
    ``children`` array, are walked on an explicit stack; every other value
    is read by json's own scanner, so only a value nested inside a node can
    raise RecursionError.  Only a leaf's tail is read once: a node's text
    from the separator after its first member (the last one before which it
    has one key) up to its closing brace.  A node whose text there repeats
    the tail of the last node without ``children`` whose tail has the same
    first 32 characters and repeats no key is a dict of its own, with its
    first member and that node's tail values, the same objects under the
    same keys.  So a caller must not mutate the document.  A text the walk
    refuses goes to ``json.loads`` to raise json's own error.
    """
    try:
        return _walk(text)
    except StopIteration:
        json.loads(text)
        raise RuntimeError("read_json refused a text that json.loads reads") from None
