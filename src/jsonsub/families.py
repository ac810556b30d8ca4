"""Deterministic schema-pair generators for benchmarking and tests.

Each function returns a (left, right) pair of plain Draft-06 schema
values.  The pairs are designed so the expected verdict is known by
construction, which makes them usable both as CLI demo material and as
scaling probes: `self_incl` measures how identity checks over wide
disjunctions scale, `oneof_fan` exercises the exclusive-choice expansion,
`rec_depth` runs inclusion through a cycle of guarded references.
"""

from __future__ import annotations

__all__ = ["FAMILIES", "make_pair", "oneof_fan", "rec_depth", "self_incl"]


def self_incl(n: int, m: int) -> tuple[dict, dict]:
    """anyOf of n object branches, m properties each, checked against itself.

    Keys are distinct across branches, so refuting branch i against its
    own negation hits the per-key fragment index instead of splitting
    residual fragments.  Expected verdict: included, no generation.
    """
    branches = []
    for i in range(n):
        props = {
            f"k{i}_{j}": {"type": "number", "minimum": j} for j in range(m)
        }
        branches.append({"type": "object", "properties": props})
    schema = {"anyOf": branches}
    return schema, schema


_SCALAR_TYPES = ("null", "boolean", "string", "array", "object")


def oneof_fan(n: int) -> tuple[dict, dict]:
    """oneOf over n pairwise-disjoint branches against its anyOf twin.

    The first five branches claim distinct non-number types; the rest are
    disjoint half-open numeric windows.  Expected verdict: equivalent.
    """
    branches: list[dict] = []
    for i in range(n):
        if i < len(_SCALAR_TYPES):
            branches.append({"type": _SCALAR_TYPES[i]})
        else:
            lo = 5 * (i - len(_SCALAR_TYPES))
            branches.append(
                {"type": "number", "minimum": lo, "exclusiveMaximum": lo + 5}
            )
    return {"oneOf": branches}, {"anyOf": branches}


def rec_depth(n: int) -> tuple[dict, dict]:
    """A cycle of n guarded list nodes against a widened twin.

    Every node is either null (the terminator) or an object whose head is
    bounded below and whose tail refers to the next node; the widened
    variant relaxes each head bound by one.  Expected verdict: included.
    """

    def build(shift: int) -> dict:
        defs = {}
        for k in range(n):
            nxt = f"#/definitions/node{(k + 1) % n}"
            defs[f"node{k}"] = {
                "anyOf": [
                    {"type": "null"},
                    {
                        "type": "object",
                        "properties": {
                            "head": {"type": "number", "minimum": k - shift},
                            "tail": {"$ref": nxt},
                        },
                        "required": ["head", "tail"],
                    },
                ]
            }
        return {"$ref": "#/definitions/node0", "definitions": defs}

    return build(0), build(1)


FAMILIES = {
    "selfIncl": lambda n, m: self_incl(n, m),
    "oneofFan": lambda n, m: oneof_fan(n),
    "recDepth": lambda n, m: rec_depth(n),
}


def make_pair(family: str, n: int, m: int = 0) -> tuple[dict, dict]:
    if n < 1 or m < 0:
        raise ValueError(f"sizes must be n >= 1 and m >= 0, got n={n}, m={m}")
    try:
        build = FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; expected one of {sorted(FAMILIES)}"
        ) from None
    return build(n, m)
