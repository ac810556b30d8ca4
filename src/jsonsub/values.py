"""JSON values with exact decimal numbers.

Numbers are kept as fractions.Fraction so that bound comparisons and
multiple-of tests never suffer binary floating point rounding. Text is
parsed through decimal.Decimal, which preserves the written value
exactly, and serialization re-emits a plain finite decimal.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from typing import Any

TYPE_NAMES = ("null", "boolean", "number", "string", "array", "object")


def parse_json(text: str) -> Any:
    """Parse JSON text into a tree whose numbers are Fractions. NaN and
    Infinity, which JSON lacks, and text nested deeper than the stack
    allows are a ValueError, as any other text that cannot be read."""
    try:
        return _exactify(json.loads(text, parse_float=Decimal, parse_constant=_no_constant))
    except RecursionError:
        raise ValueError("JSON text nests too deeply to parse") from None


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _exactify(node: Any) -> Any:
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return node
    if isinstance(node, (Decimal, int)):
        return Fraction(node)
    if isinstance(node, list):
        return [_exactify(x) for x in node]
    if isinstance(node, dict):
        return {k: _exactify(v) for k, v in node.items()}
    raise TypeError(f"unexpected JSON node: {node!r}")


def decimal_repr(q: Fraction) -> str:
    """Exact decimal string for q; raises if q is not a finite decimal."""
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num)
    d = den
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        raise ValueError(f"not representable as a finite decimal: {q}")
    scale = max(twos, fives)
    scaled = num * 10**scale // den
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(scale + 1, "0")
    intpart, fracpart = digits[: len(digits) - scale], digits[len(digits) - scale :]
    fracpart = fracpart.rstrip("0")
    if not fracpart:
        return sign + intpart
    return f"{sign}{intpart}.{fracpart}"


def is_number(v: Any) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def json_type(v: Any) -> str:
    """One of the six JSON type names. Booleans are never numbers."""
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "boolean"
    if is_number(v):
        return "number"
    if isinstance(v, str):
        return "string"
    if isinstance(v, list):
        return "array"
    if isinstance(v, dict):
        return "object"
    raise TypeError(f"not a JSON value: {v!r}")


def canonical_key(v: Any):
    """Hashable structural key; equal keys iff equal JSON values."""
    if v is None:
        return ("z",)
    if isinstance(v, bool):
        return ("b", v)
    if is_number(v):
        return ("n", Fraction(v))
    if isinstance(v, str):
        return ("s", v)
    if isinstance(v, list):
        return ("a", tuple(canonical_key(x) for x in v))
    if isinstance(v, dict):
        return ("o", tuple(sorted((k, canonical_key(x)) for k, x in v.items())))
    raise TypeError(f"not a JSON value: {v!r}")


def json_equal(a: Any, b: Any) -> bool:
    return canonical_key(a) == canonical_key(b)


def dump_json(v: Any, indent: int | None = 2) -> str:
    """Serialize with exact decimal emission and sorted object keys. A
    float, which only a timing is, is written as its repr."""
    pieces: list[str] = []
    _write(v, pieces, indent, 0)
    return "".join(pieces)


def _write(v: Any, out: list[str], indent: int | None, depth: int) -> None:
    if v is None:
        out.append("null")
    elif isinstance(v, bool):
        out.append("true" if v else "false")
    elif is_number(v):
        out.append(decimal_repr(Fraction(v)))
    elif type(v) is float:
        out.append(repr(v))
    elif isinstance(v, str):
        out.append(json.dumps(v, ensure_ascii=True))
    elif isinstance(v, list):
        if not v:
            out.append("[]")
            return
        open_, close, sep, pad = _frame("[", "]", indent, depth)
        out.append(open_)
        for i, x in enumerate(v):
            if i:
                out.append(sep)
            out.append(pad)
            _write(x, out, indent, depth + 1)
        out.append(close)
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        open_, close, sep, pad = _frame("{", "}", indent, depth)
        out.append(open_)
        for i, k in enumerate(sorted(v)):
            if i:
                out.append(sep)
            out.append(pad)
            out.append(json.dumps(k, ensure_ascii=True))
            out.append(": ")
            _write(v[k], out, indent, depth + 1)
        out.append(close)
    else:
        raise TypeError(f"not a JSON value: {v!r}")


def _frame(open_: str, close: str, indent: int | None, depth: int):
    if indent is None:
        return open_, close, ",", ""
    lead = "\n" + " " * (indent * (depth + 1))
    tail = "\n" + " " * (indent * depth) + close
    return open_, tail, ",", lead
