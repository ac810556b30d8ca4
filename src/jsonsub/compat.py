"""Draft-06 translation to schema terms.

The supported keyword subset is translated exactly; anything outside it
fails loudly with UnsupportedKeyword instead of being skipped. Only
document-local $ref targets are resolved. Annotation keywords carry no
constraints and are ignored; $ref siblings are ignored as Draft-06
prescribes. integer becomes number restricted to a whole-number factor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from . import patterns as P
from .errors import MalformedSchema, UnresolvableRef, UnsupportedFeature, UnsupportedKeyword
from .model import (
    Document,
    Env,
    FALSE,
    RefName,
    SConst,
    SContainsFrom,
    SItemAt,
    SItemsFrom,
    SMaxItems,
    SMaxProps,
    SMaximum,
    SMinItems,
    SMinProps,
    SMinimum,
    SMultipleOf,
    SOneOf,
    SPattern,
    SPatternProps,
    SPatternReq,
    SRefSingle,
    SType,
    SUniqueItems,
    Schema,
    TRUE,
    s_all_of,
    s_any_of,
    s_not,
    s_type_set,
)
from .values import TYPE_NAMES, is_number

ANNOTATION_KEYWORDS = {"title", "description", "default", "examples", "$schema", "$comment"}

_INTEGER = s_all_of((SType("number"), SMultipleOf(Fraction(1))))


def parse_schema(node: Any, uri_prefix: str = "") -> Document:
    """Translate a parsed Draft-06 JSON value into a schema document."""
    parser = _Parser(node, uri_prefix)
    try:
        root = parser.schema(node)
        # targets are parsed after the root, in the order met (the list grows
        # as it is read), so a $ref chain nests no calls; binding in reverse
        # keeps the order of a parse that descended into each target where met
        bodies = [(name, parser.schema(target)) for name, target in parser.pending]
    except RecursionError:
        raise UnsupportedFeature("schema nests too deeply to parse") from None
    for name, body in reversed(bodies):
        parser.env.bind(name, body)
    return Document(root, parser.env)


class _Parser:
    def __init__(self, root_node: Any, uri_prefix: str):
        self.root_node = root_node
        self.uri_prefix = uri_prefix
        self.env = Env()
        self.started: set[str] = set()
        # (name, target node) of every $ref target met, not parsed yet
        self.pending: list[tuple[RefName, Any]] = []

    # -- reference handling

    def ref_target(self, ref: str) -> RefName:
        if not isinstance(ref, str) or not ref.startswith("#"):
            raise UnresolvableRef(f"only document-local references are supported: {ref!r}")
        pointer = ref[1:]
        uri = self.uri_prefix + "#" + pointer
        name = RefName(uri)
        if uri not in self.started:
            self.started.add(uri)
            self.pending.append((name, self.resolve_pointer(pointer, ref)))
        return name

    def resolve_pointer(self, pointer: str, original: str) -> Any:
        node = self.root_node
        if pointer == "":
            return node
        if not pointer.startswith("/"):
            raise UnresolvableRef(f"unsupported reference form: {original!r}")
        for raw in pointer[1:].split("/"):
            token = raw.replace("~1", "/").replace("~0", "~")
            if isinstance(node, dict):
                if token not in node:
                    raise UnresolvableRef(f"reference target not found: {original!r}")
                node = node[token]
            elif isinstance(node, list):
                if not token.isdigit() or int(token) >= len(node):
                    raise UnresolvableRef(f"reference target not found: {original!r}")
                node = node[int(token)]
            else:
                raise UnresolvableRef(f"reference target not found: {original!r}")
        return node

    # -- translation

    def schema(self, node: Any) -> Schema:
        if node is True:
            return TRUE
        if node is False:
            return FALSE
        if not isinstance(node, dict):
            raise MalformedSchema(f"schema must be an object or boolean, got {node!r}")
        if "$ref" in node:
            # Draft-06: all other keywords beside $ref are ignored
            return SRefSingle(self.ref_target(node["$ref"]))

        keys = node.keys()
        if not keys <= _KNOWN:
            raise UnsupportedKeyword(next(kw for kw in node if kw not in _KNOWN))

        conj: list[Schema] = []
        for group, parse in _GROUPS:
            if not keys.isdisjoint(group):
                parse(self, node, conj)
        return s_all_of(conj)

    def _types(self, node: dict, conj: list[Schema]) -> None:
        if "type" not in node:
            return
        spec = node["type"]
        names = [spec] if isinstance(spec, str) else spec
        if not isinstance(names, list) or not names:
            raise MalformedSchema(f"bad type value: {spec!r}")
        plain: set[str] = set()
        integer = False
        for name in names:
            if name == "integer":
                integer = True
            elif name in TYPE_NAMES:
                plain.add(name)
            else:
                raise MalformedSchema(f"unknown type name: {name!r}")
        if integer and "number" not in plain:
            parts: list[Schema] = [_INTEGER]
            if plain:
                parts.append(s_type_set(plain))
            conj.append(s_any_of(parts))
        else:
            conj.append(s_type_set(plain))

    def _consts(self, node: dict, conj: list[Schema]) -> None:
        if "const" in node:
            conj.append(self.const_atom(node["const"], "const"))
        if "enum" in node:
            members = node["enum"]
            if not isinstance(members, list) or not members:
                raise MalformedSchema(f"enum must be a non-empty array: {members!r}")
            conj.append(s_any_of(self.const_atom(m, "enum") for m in members))

    def const_atom(self, value: Any, keyword: str) -> Schema:
        if value is None:
            return SType("null")
        if isinstance(value, bool):
            return SConst(value)
        if is_number(value):
            return SConst(Fraction(value))
        if isinstance(value, str):
            return s_all_of((SType("string"), SPattern(P.key(value))))
        raise UnsupportedKeyword(keyword, f"{keyword} member of array or object type")

    def _objects(self, node: dict, conj: list[Schema]) -> None:
        prop_pats: list[P.PatternExpr] = []
        if "properties" in node:
            props = _expect_object(node["properties"], "properties")
            for name in sorted(props):
                pat = P.key(name)
                prop_pats.append(pat)
                conj.append(SPatternProps(pat, self.schema(props[name])))
        if "patternProperties" in node:
            pats = _expect_object(node["patternProperties"], "patternProperties")
            for src in sorted(pats):
                pat = P.regex(src)
                prop_pats.append(pat)
                conj.append(SPatternProps(pat, self.schema(pats[src])))
        if "additionalProperties" in node:
            residual = P.p_not(P.p_or(*prop_pats))
            sub = self.schema(node["additionalProperties"])
            if sub != TRUE:
                conj.append(SPatternProps(residual, sub))
        if "required" in node:
            names = node["required"]
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise MalformedSchema(f"required must be an array of strings: {names!r}")
            for name in names:
                conj.append(SPatternReq(P.key(name), TRUE))
        if "minProperties" in node:
            conj.append(SMinProps(_expect_count(node["minProperties"], "minProperties")))
        if "maxProperties" in node:
            conj.append(SMaxProps(_expect_count(node["maxProperties"], "maxProperties")))

    def _arrays(self, node: dict, conj: list[Schema]) -> None:
        if "items" in node:
            items = node["items"]
            if isinstance(items, list):
                for i, sub in enumerate(items):
                    conj.append(SItemAt(i, self.schema(sub)))
                if "additionalItems" in node:
                    sub = self.schema(node["additionalItems"])
                    if sub != TRUE:
                        conj.append(SItemsFrom(len(items), sub))
            else:
                sub = self.schema(items)
                if sub != TRUE:
                    conj.append(SItemsFrom(0, sub))
        if "contains" in node:
            conj.append(SContainsFrom(0, self.schema(node["contains"])))
        if "minItems" in node:
            conj.append(SMinItems(_expect_count(node["minItems"], "minItems")))
        if "maxItems" in node:
            conj.append(SMaxItems(_expect_count(node["maxItems"], "maxItems")))
        if "uniqueItems" in node:
            flag = node["uniqueItems"]
            if not isinstance(flag, bool):
                raise MalformedSchema(f"uniqueItems must be boolean: {flag!r}")
            if flag:
                conj.append(SUniqueItems())

    def _numbers(self, node: dict, conj: list[Schema]) -> None:
        for kw, exclusive, ctor in (
            ("minimum", False, SMinimum),
            ("exclusiveMinimum", True, SMinimum),
            ("maximum", False, SMaximum),
            ("exclusiveMaximum", True, SMaximum),
        ):
            if kw in node:
                value = node[kw]
                if isinstance(value, bool):
                    raise MalformedSchema(
                        f"{kw} must be a number in Draft-06 (boolean form is Draft-04)"
                    )
                if not is_number(value):
                    raise MalformedSchema(f"{kw} must be a number: {value!r}")
                conj.append(ctor(Fraction(value), exclusive))
        if "multipleOf" in node:
            value = node["multipleOf"]
            if isinstance(value, bool) or not is_number(value) or Fraction(value) <= 0:
                raise MalformedSchema(f"multipleOf must be a positive number: {value!r}")
            conj.append(SMultipleOf(Fraction(value)))

    def _strings(self, node: dict, conj: list[Schema]) -> None:
        if "pattern" in node:
            conj.append(SPattern(P.regex(node["pattern"])))
        if "minLength" in node:
            conj.append(SPattern(P.min_len(_expect_count(node["minLength"], "minLength"))))
        if "maxLength" in node:
            conj.append(SPattern(P.max_len(_expect_count(node["maxLength"], "maxLength"))))

    def _combinators(self, node: dict, conj: list[Schema]) -> None:
        for kw, build in (("allOf", s_all_of), ("anyOf", s_any_of), ("oneOf", None)):
            if kw in node:
                subs = node[kw]
                if not isinstance(subs, list) or not subs:
                    raise MalformedSchema(f"{kw} must be a non-empty array")
                parts = list(map(self.schema, subs))
                conj.append(SOneOf(tuple(parts)) if build is None else build(parts))
        if "not" in node:
            conj.append(s_not(self.schema(node["not"])))


# each group parser with the keywords it reads, in the order their
# operators enter a node's conjunction; a node runs only the groups it holds
_GROUPS = tuple((frozenset(keywords.split()), parse) for parse, keywords in (
    (_Parser._types, "type"),
    (_Parser._consts, "const enum"),
    (_Parser._objects, "properties patternProperties additionalProperties required"
                       " minProperties maxProperties"),
    (_Parser._arrays, "items additionalItems contains minItems maxItems uniqueItems"),
    (_Parser._numbers, "minimum exclusiveMinimum maximum exclusiveMaximum multipleOf"),
    (_Parser._strings, "pattern minLength maxLength"),
    (_Parser._combinators, "allOf anyOf oneOf not"),
))

# $ref stands for its whole node, and definitions are read through $ref
SUPPORTED_KEYWORDS = frozenset({"$ref", "definitions"}).union(*(g for g, _ in _GROUPS))
_KNOWN = SUPPORTED_KEYWORDS | ANNOTATION_KEYWORDS


def _expect_object(node: Any, keyword: str) -> dict:
    if not isinstance(node, dict):
        raise MalformedSchema(f"{keyword} must be an object: {node!r}")
    return node


def _expect_count(node: Any, keyword: str) -> int:
    if isinstance(node, bool) or not is_number(node):
        raise MalformedSchema(f"{keyword} must be a non-negative integer: {node!r}")
    q = Fraction(node)
    if q.denominator != 1 or q < 0:
        raise MalformedSchema(f"{keyword} must be a non-negative integer: {node!r}")
    return int(q)

