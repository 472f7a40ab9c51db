"""Textual format definitions: JSON in, format trees out, and back.

Each node type defines its own JSON form (`to_json` and `from_json` in
`formats`). This module holds what they share: JSON text in and out, the
table from "type" tag to node class, and the typed parameter reader that
reports every error with the path of the object it sits in. The character
set notation lives in `formats` and is re-exported here.

The serialized form is canonical: keys are sorted, separators are compact,
defaults are omitted, character sets collapse runs of three or more into
ranges, and dates are ISO 8601. Canonical text is stable across runs, so
it can safely feed key derivation.
"""

from __future__ import annotations

import json
from dataclasses import fields
from datetime import date as _date
from datetime import datetime

from .errors import BadParameter, SpecSyntaxError, UnknownNodeType
from .formats import NODE_TYPES, parse_charset, serialize_charset

__all__ = ["parse_spec", "serialize_spec", "parse_charset", "serialize_charset"]

# the JSON parameters of a node are exactly its dataclass fields
_NODE_CLASSES = {cls.kind: (cls, {f.name for f in fields(cls)} | {"type"}) for cls in NODE_TYPES}
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
    return json.dumps(
        spec.to_json(), sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def _build(doc, path, seen):
    """One node from its JSON object. Equal subtrees of one document come
    back as the same object (through `seen`), so that what is derived from
    a repeated subtree is derived once."""
    if not isinstance(doc, dict):
        raise BadParameter(f"{path}: expected an object")
    t = doc.get("type")
    if t is None:
        raise BadParameter(f"{path}: missing 'type'")
    cls, keys = _NODE_CLASSES.get(t, (None, None)) if isinstance(t, str) else (None, None)
    if cls is None:
        raise UnknownNodeType(f"{path}: unknown node type {t!r}")
    extra = set(doc) - keys
    if extra:
        raise BadParameter(f"{path}: unexpected parameter(s) {sorted(extra)}")
    node = cls.from_json(_Reader(doc, path, seen))
    return seen.setdefault(node, node)


class _Reader:
    """Typed access to the parameters of one JSON object; every error names
    the object's path."""

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

    def texts(self, key, default=_REQUIRED):
        """A list of strings, as a tuple."""
        raw = self.get(key, list, default)
        if raw is default:
            return raw
        for i, v in enumerate(raw):
            if not isinstance(v, str):
                self.fail(f"{key}[{i}] must be a string")
        return tuple(raw)

    def charset(self, text, where):
        """Expand character set notation found at `where` in this object."""
        return parse_charset(text, f"{self.path}.{where}")

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

    def node(self, key):
        """A nested node definition."""
        return _build(self.get(key, object), f"{self.path}.{key}", self.seen)

    def nodes(self, key):
        """A non-empty list of nested node definitions, as a tuple."""
        raw = self.get(key, list)
        if not raw:
            self.fail(f"{key} must not be empty")
        return tuple(_build(p, f"{self.path}.{key}[{i}]", self.seen) for i, p in enumerate(raw))
