"""Textual format definitions: JSON in, format trees out, and back.

A node's JSON object is its "type" tag and its dataclass fields, each under
its own name and left out at its default; how a field is read and written
follows from its name (`_PARAMS`). Only `Date` has its own form (`to_json`
and `from_json`): its bounds are written by granularity, and its
granularity always. Every error names the path of the object it sits in.
The character set notation lives in `formats` and is re-exported here.

The serialized form is canonical: keys are sorted, separators are compact,
defaults are omitted, character sets collapse runs of three or more into
ranges, and dates are ISO 8601. Canonical text is stable across runs, so
it can safely feed key derivation.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from datetime import date as _date
from datetime import datetime

from .errors import BadParameter, SpecSyntaxError, UnknownNodeType
from .formats import NODE_TYPES, parse_charset, serialize_charset

__all__ = ["parse_spec", "serialize_spec", "parse_charset", "serialize_charset"]

_REQUIRED = object()


def parse_spec(text: str):
    """Build a format tree from its JSON definition."""
    try:
        return _build(json.loads(text), "$", {})
    except json.JSONDecodeError as e:
        raise SpecSyntaxError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    except ValueError:  # from json.loads: an integer past the digits CPython reads (4,300 by default)
        raise SpecSyntaxError("an integer has too many digits") from None
    except RecursionError:  # from json.loads or _build
        raise SpecSyntaxError("nested too deeply") from None


def serialize_spec(spec) -> str:
    """Canonical JSON text for a format tree."""
    return json.dumps(_to_json(spec, {}), sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _build(doc, path, seen):
    """One node from its JSON object. Equal subtrees of one document come
    back as the same object (through `seen`), so that what is derived from
    a repeated subtree is derived once."""
    if not isinstance(doc, dict):
        raise BadParameter(f"{path}: expected an object")
    t = doc.get("type")
    if t is None:
        raise BadParameter(f"{path}: missing 'type'")
    if not (isinstance(t, str) and t in _NODE_CLASSES):
        raise UnknownNodeType(f"{path}: unknown node type {t!r}")
    cls, keys, params = _NODE_CLASSES[t]
    if not keys.issuperset(doc):
        raise BadParameter(f"{path}: unexpected parameter(s) {sorted(set(doc) - keys)}")
    r = _Reader(doc, path, seen)
    node = cls.from_json(r) if params is None else cls(*r.field_values(params))
    # a composite's key names each child by identity, a child being already the
    # one copy of its subtree: hashing the node would walk the whole subtree again
    key = node if "inner" not in keys and "parts" not in keys else (cls, *[
        id(v) if k == "inner" else tuple(map(id, v)) if k == "parts" else v for k, v in vars(node).items()])
    return seen.setdefault(key, node)


def _to_json(node, done: dict) -> dict:
    """A node's JSON object, built once per node of one tree (`done`, by id)."""
    out = done.get(id(node))
    if out is None:
        params = _NODE_CLASSES[node.kind][2]
        out = done[id(node)] = node.to_json() if params is None else {"type": node.kind}
        for name, _, _, write, default in params or ():
            v = getattr(node, name)
            if default is _REQUIRED or v != default:
                out[name] = v if write is None else write(v, done)
    return out


class _Reader:
    """Typed access to the parameters of one JSON object; every error names
    the object's path."""

    __slots__ = ("doc", "path", "seen")

    def __init__(self, doc: dict, path: str, seen: dict):
        self.doc = doc
        self.path = path
        self.seen = seen

    def fail(self, message):
        raise BadParameter(f"{self.path}: {message}")

    def get(self, key, kind, default=_REQUIRED):
        """The value under key, which must have type kind (bool is no int)."""
        if key not in self.doc:
            if default is _REQUIRED:
                self.fail(f"missing parameter {key!r}")
            return default
        v = self.doc[key]
        if kind is int and isinstance(v, bool):
            self.fail(f"{key!r} must be an integer")
        if not isinstance(v, kind):
            self.fail(f"{key!r} has the wrong type")
        return v

    def field_values(self, params) -> list:
        """A node's fields, in order, each read as `_PARAMS` says."""
        out = []
        for name, kind, read, _, default in params:
            v = self.get(name, kind, default)
            out.append(v if read is None or v is default else read(self, name, v))
        return out

    def iso_datetime(self, key):
        """An ISO 8601 date or datetime; a bare date means midnight."""
        v = self.get(key, object)
        if not isinstance(v, str):
            self.fail(f"{key!r} must be an ISO 8601 string")
        try:
            return datetime.fromisoformat(v)
        except ValueError:
            pass
        try:
            d = _date.fromisoformat(v)
        except ValueError:
            self.fail(f"{key!r} is not an ISO 8601 date: {v!r}")
        return datetime(d.year, d.month, d.day)

    # each reader below makes a field from the JSON value under key

    def charsets(self, key, raw):
        return tuple(parse_charset(cs, f"{self.path}.{key}[{i}]")
                     for i, cs in enumerate(self.texts(key, raw)))

    def nodes(self, key, raw):
        if not raw:
            self.fail(f"{key} must not be empty")
        return tuple(_build(p, f"{self.path}.{key}[{i}]", self.seen) for i, p in enumerate(raw))

    def texts(self, key, raw):
        for i, v in enumerate(raw):
            if not isinstance(v, str):
                self.fail(f"{key}[{i}] must be a string")
        return tuple(raw)


# How a parameter is read and written, by name: its JSON type, the reader
# making the field from the JSON value and the writer making the JSON value
# from the field and the tree's objects built so far (None: the value itself).
_PARAMS = {
    "alphabet": (str, lambda r, key, raw: parse_charset(raw, f"{r.path}.{key}"), lambda v, _: serialize_charset(v)),
    "charsets": (list, _Reader.charsets, lambda v, _: list(map(serialize_charset, v))),
    "inner": (object, lambda r, key, raw: _build(raw, f"{r.path}.{key}", r.seen), _to_json),
    "parts": (list, _Reader.nodes, lambda v, done: [_to_json(p, done) for p in v]),
    "strings": (list, _Reader.texts, lambda v, _: list(v)),
    "delims": (list, _Reader.texts, lambda v, _: list(v)),
    "min": (int, None, None),
    "max": (int, None, None),
    "delim": (str, None, None),
    "prefix_free": (bool, None, lambda v, _: bool(v)),
    "last_delimited": (bool, None, lambda v, _: bool(v)),
}

# by "type" tag: the class, its JSON keys (its fields and "type"), and how
# each field is read and written, or None where the class has its own form
_NODE_CLASSES = {
    cls.kind: (cls, {f.name for f in fields(cls)} | {"type"},
               None if hasattr(cls, "from_json") else tuple(
                   (f.name, *_PARAMS[f.name], _REQUIRED if f.default is MISSING else f.default)
                   for f in fields(cls)))
    for cls in NODE_TYPES
}
