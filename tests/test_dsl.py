"""Text form of format definitions: charset grammar, JSON round trips, and
a canonical text that changes with every field of every node type."""

import copy
import dataclasses
from collections import Counter
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpekit import (
    BadParameter,
    Ccn,
    Concat,
    Date,
    DelimStringSet,
    DelimVarString,
    FixedString,
    IntegralDomain,
    InvalidFormat,
    Range,
    SpecSyntaxError,
    Ssn,
    StringSet,
    Union,
    UnknownNodeType,
    VarString,
    ensure_valid,
    parse_charset,
    parse_spec,
    serialize_charset,
    serialize_spec,
    validate,
)
from fpekit import dsl
from fpekit.formats import NODE_TYPES

from corpus import PREFIX_SPECS, SMALL_SPECS, address_format
from test_generated_formats import SETTINGS, valid_trees


# ---------------------------------------------------------------------------
# charset grammar


def test_charset_ranges_expand():
    assert parse_charset("a-e") == "abcde"
    assert parse_charset("a-c0-2x") == "abc012x"
    assert parse_charset("a-a") == "a"
    assert parse_charset("abc") == "abc"


def test_charset_escapes():
    assert parse_charset(r"a\-b") == "a-b"
    assert parse_charset(r"\\") == "\\"
    assert parse_charset(r"\-") == "-"
    # an escaped dash is a literal, never a range marker
    assert parse_charset(r"a\-z") == "a-z"


def test_charset_rejections():
    for bad in ("-", "a-", "-a", "a--c", "c-a", "\\", r"\x"):
        with pytest.raises(BadParameter):
            parse_charset(bad)


def test_charset_serialization_collapses_runs():
    assert serialize_charset("abcde") == "a-e"
    assert serialize_charset("ab") == "ab"
    assert serialize_charset("abce") == "a-ce"
    assert serialize_charset("-") == r"\-"
    assert serialize_charset("\\") == r"\\"
    # a run through the dash may use it as the range marker itself
    assert serialize_charset(",-.") == ",-."
    assert parse_charset(serialize_charset(",-.")) == ",-."


@given(st.sets(st.characters(min_codepoint=33, max_codepoint=0x2FF), min_size=1))
def test_charset_round_trip(chars):
    text = "".join(sorted(chars))
    assert parse_charset(serialize_charset(text)) == text


# ---------------------------------------------------------------------------
# spec JSON


def test_corpus_specs_round_trip():
    for name, spec in SMALL_SPECS + PREFIX_SPECS:
        text = serialize_spec(spec)
        back = parse_spec(text)
        assert back == spec, name
        assert serialize_spec(back) == text, name


@settings(max_examples=150, **SETTINGS)
@given(valid_trees)
def test_generated_trees_round_trip(spec):
    assert parse_spec(serialize_spec(spec)) == spec


# one value of each type, and another value for each of its fields
ALTERED = {
    Ssn(): {},
    Ccn(): {},
    Date(datetime(2000, 1, 1), datetime(2000, 2, 1)): {
        "min": datetime(1999, 1, 1), "max": datetime(2000, 3, 1), "granularity": "second"},
    FixedString(("ab", "01")): {"charsets": ("ab", "012")},
    DelimVarString(1, 3, "ab", ","): {"min": 0, "max": 4, "alphabet": "abc", "delim": ";"},
    VarString(1, 3, "ab"): {"min": 0, "max": 4, "alphabet": "abc"},
    DelimStringSet(("a,", "b,"), ","): {"strings": ("b,", "a,"), "delim": None,
                                        "prefix_free": True},
    StringSet(("a", "b")): {"strings": ("a", "b", "c")},
    IntegralDomain(0, 9): {"min": -1, "max": 10},
    Union((FixedString(("ab",)), FixedString(("01",)))): {"parts": (FixedString(("ab",)),)},
    Concat((FixedString(("ab",)), FixedString(("01",)))): {
        "parts": (FixedString(("01",)), FixedString(("ab",))), "delims": (",",)},
    Range(FixedString(("ab",)), ",", 1, 2): {
        "inner": FixedString(("abc",)), "delim": ";", "min": 2, "max": 3,
        "last_delimited": False},
}


def test_the_canonical_text_covers_every_field():
    assert {type(spec) for spec in ALTERED} == set(NODE_TYPES)
    for spec, other in ALTERED.items():
        assert set(other) == {f.name for f in dataclasses.fields(spec)}, type(spec)
        text = serialize_spec(spec)
        assert parse_spec(text) == spec
        for name, value in other.items():
            changed = dataclasses.replace(spec, **{name: value})
            assert serialize_spec(changed) != text, (type(spec), name)
            assert parse_spec(serialize_spec(changed)) == changed, (type(spec), name)


def test_canonical_text_is_compact_and_sorted():
    assert serialize_spec(Ssn()) == '{"type":"ssn"}'
    assert (
        serialize_spec(VarString(1, 3, "ab"))
        == '{"alphabet":"ab","max":3,"min":1,"type":"var"}'
    )


def test_date_serialization_tracks_granularity():
    d = Date(datetime(1999, 1, 5), datetime(2000, 2, 6))
    text = serialize_spec(d)
    assert '"min":"1999-01-05"' in text
    assert '"granularity":"day"' in text
    assert parse_spec(text) == d

    s = Date(datetime(1999, 1, 5, 6, 7, 8), datetime(2000, 1, 1), "second")
    text = serialize_spec(s)
    assert '"min":"1999-01-05T06:07:08"' in text
    assert '"max":"2000-01-01T00:00:00"' in text
    assert parse_spec(text) == s


def test_date_only_text_means_midnight():
    spec = parse_spec(
        '{"type":"date","min":"2000-01-01","max":"2000-01-02","granularity":"second"}'
    )
    assert spec.min == datetime(2000, 1, 1, 0, 0, 0)


def test_defaults_are_omitted():
    assert "last_delimited" not in serialize_spec(
        Range(FixedString(("ab",)), " ", 1, 2, last_delimited=True)
    )
    assert '"last_delimited":false' in serialize_spec(
        Range(FixedString(("ab",)), " ", 1, 2, last_delimited=False)
    )
    assert "delims" not in serialize_spec(Concat((FixedString(("ab",)), FixedString(("01",)))))
    assert "prefix_free" not in serialize_spec(DelimStringSet(("a|", "b|"), "|"))
    assert '"prefix_free":true' in serialize_spec(DelimStringSet(("cat", "dog"), prefix_free=True))


def test_bad_json_reports_position():
    with pytest.raises(SpecSyntaxError) as e:
        parse_spec("{")
    assert "line 1 column" in str(e.value)


def test_an_integer_past_the_decimal_limit_is_a_syntax_error():
    # json reads integers through int(), which refuses more than 4,300 digits
    for digits in ("9" * 4301, "-" + "9" * 5000):
        with pytest.raises(SpecSyntaxError, match="too many digits"):
            parse_spec('{"type":"integral","min":0,"max":%s}' % digits)
    assert parse_spec('{"type":"integral","min":0,"max":%s}' % ("9" * 4300)).max == 10**4300 - 1


def test_unknown_type_and_bad_shapes():
    with pytest.raises(UnknownNodeType):
        parse_spec('{"type":"zebra"}')
    with pytest.raises(BadParameter):
        parse_spec("[]")
    with pytest.raises(BadParameter):
        parse_spec('{"min":1}')


def test_unexpected_keys_are_rejected():
    with pytest.raises(BadParameter) as e:
        parse_spec('{"type":"ssn","area":1}')
    assert "area" in str(e.value)
    with pytest.raises(BadParameter):
        parse_spec('{"type":"var","min":1,"max":2,"alphabet":"ab","delim":"-"}')


def test_parameter_types_are_checked():
    with pytest.raises(BadParameter):
        parse_spec('{"type":"var","min":"1","max":2,"alphabet":"ab"}')
    with pytest.raises(BadParameter):
        parse_spec('{"type":"integral","min":true,"max":5}')
    with pytest.raises(BadParameter):
        parse_spec('{"type":"var","min":1,"max":2}')
    with pytest.raises(BadParameter):
        parse_spec('{"type":"date","min":"not a date","max":"2000-01-01"}')


def test_nested_error_paths_name_the_subtree():
    with pytest.raises(UnknownNodeType) as e:
        parse_spec('{"type":"union","parts":[{"type":"ssn"},{"type":"nope"}]}')
    assert "$.parts[1]" in str(e.value)


# ---------------------------------------------------------------------------
# field types, and the cost of deduplicating subtrees


@pytest.mark.parametrize("make, path", [
    (lambda: IntegralDomain(True, 5), ".min"),
    (lambda: VarString(1.0, 3, "ab"), ".min"),
    (lambda: VarString(1, 3, 5), ".alphabet"),
    (lambda: FixedString(("ab", 5)), ".charsets"),
    (lambda: StringSet(("a", 1)), ".strings"),
    (lambda: DelimStringSet(("a",), prefix_free=1), ".prefix_free"),
    (lambda: Range(Ssn(), ",", 1, 2, last_delimited=None), ".last_delimited"),
    (lambda: Concat((Range(FixedString(("ab",)), ",", 1, 2.0),)), ".parts[0].max"),
], ids=["bool-min", "float-min", "int-alphabet", "int-charset", "int-string", "int-flag",
        "none-flag", "nested-float"])
def test_a_field_of_the_wrong_type_is_a_bad_parameter_at_its_path(make, path):
    with pytest.raises(InvalidFormat) as e:
        ensure_valid(make())
    assert [(v.path, v.code) for v in e.value.violations] == [(path, "BadParameter")]


def test_every_format_that_validates_round_trips():
    # every field of every type set to values of other types: whatever
    # validates has a canonical text that parses back to it
    others = (True, 0, 1, 2.0, "", "ab", None, ("ab",), (1,), ["a", "b"], b"ab",
              datetime(2000, 1, 1), Ssn())
    refused = valid = 0
    for spec in ALTERED:
        for f in dataclasses.fields(spec):
            for value in others:
                try:
                    changed = dataclasses.replace(spec, **{f.name: value})
                except TypeError:  # a constructor that cannot iterate it
                    continue
                if validate(changed):
                    refused += 1
                else:
                    valid += 1
                    assert parse_spec(serialize_spec(changed)) == changed, (type(spec), f.name, value)
    assert refused > 100 and valid > 10, (refused, valid)


def _nested_ranges(depth):
    text = '{"type":"fixed","charsets":["a-c"]}'
    for _ in range(depth):
        text = f'{{"type":"range","inner":{text},"delim":",","min":1,"max":2}}'
    return text


def test_parsing_does_not_hash_a_subtree_again_at_each_level_above_it(monkeypatch):
    calls = Counter()
    for cls in NODE_TYPES:
        def counted(node, fields_hash=cls.__hash__):
            calls[type(node).__name__] += 1
            return fields_hash(node)

        monkeypatch.setattr(cls, "__hash__", counted)
    for depth in (50, 100):
        calls.clear()
        spec = parse_spec(_nested_ranges(depth))
        assert sum(calls.values()) <= 2 * depth, (depth, calls)  # d(d+1)/2 when each level rehashed
        assert parse_spec(serialize_spec(spec)) == spec
    # equal subtrees, however written, are still one object
    spec = parse_spec('{"type":"concat","delims":[";"],"parts":[%s,%s]}'
                      % (_nested_ranges(3), _nested_ranges(3).replace("a-c", "abc")))
    assert spec.parts[0] is spec.parts[1]


def test_a_shared_subtree_is_serialized_once_per_call(monkeypatch):
    # the address tree's three word ranges share one word node, whose JSON
    # object one serialization builds once: 7 character sets written, not 11
    written = []
    real = dsl.serialize_charset
    monkeypatch.setattr(dsl, "serialize_charset", lambda cs: written.append(cs) or real(cs))
    shared = address_format()
    text = serialize_spec(shared)
    assert len(written) == 7
    written.clear()
    assert serialize_spec(shared) == text and len(written) == 7  # nothing kept between calls
    # the same tree with three separate word nodes has the same text
    apart = Concat(tuple(dataclasses.replace(p, inner=copy.deepcopy(p.inner)) if p.kind == "range"
                         else p for p in shared.parts), shared.delims)
    assert apart.parts[0].inner.parts[0] is not apart.parts[1].inner.parts[0]
    written.clear()
    assert serialize_spec(apart) == text and len(written) == 11
