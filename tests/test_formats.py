"""Format tree validation, counting, membership, parsing, enumeration."""

import random
import string
import sys
import tracemalloc
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpekit import (
    Ccn,
    CipherConfig,
    Concat,
    Date,
    DelimStringSet,
    DelimVarString,
    FixedString,
    IntegralDomain,
    IntFpeKey,
    InvalidFormat,
    Range,
    Ssn,
    SpecSyntaxError,
    StringSet,
    Union,
    VarString,
    alphabet,
    build_plan,
    contains,
    encrypt,
    ensure_valid,
    enumerate_members,
    parse_spec,
    rank,
    serialize_spec,
    size,
    unrank,
    validate,
)
from fpekit.errors import ParseFailure
from fpekit import formats
from fpekit.formats import DIGITS, _all_decimal

from corpus import PREFIX_SPECS, SMALL_SPECS, address_format

KEY = IntFpeKey(bytes(range(32)))


def codes(spec):
    return {v.code for v in validate(spec)}


# ---------------------------------------------------------------------------
# validation


def test_corpus_is_clean():
    for name, spec in SMALL_SPECS + PREFIX_SPECS:
        assert validate(spec) == [], name


def test_small_corpus_is_small_and_large_enough():
    assert len(SMALL_SPECS) >= 25
    for name, spec in SMALL_SPECS:
        assert size(spec) <= 10**4, name


def test_empty_charset_rejected():
    assert "EmptyAlphabet" in codes(FixedString(("ab", "")))
    assert "EmptyAlphabet" in codes(VarString(1, 2, ""))


def test_no_positions_rejected():
    assert "BadParameter" in codes(FixedString(()))


def test_bad_length_bounds():
    assert "BadBounds" in codes(VarString(3, 2, "ab"))
    assert "BadBounds" in codes(VarString(-1, 2, "ab"))
    assert "BadBounds" in codes(IntegralDomain(5, 4))
    assert "BadBounds" in codes(Range(FixedString(("ab",)), "-", 0, 2))
    assert "BadBounds" in codes(Range(FixedString(("ab",)), "-", 3, 2))


def test_delimiter_rules():
    assert "BadDelimiter" in codes(DelimVarString(1, 2, "ab", "xy"))
    assert "DelimiterInAlphabet" in codes(DelimVarString(1, 2, "ab", "a"))
    assert "DelimiterInAlphabet" in codes(Range(FixedString(("ab",)), "a", 1, 2))
    assert "BadDelimiter" in codes(
        Concat((FixedString(("ab",)), FixedString(("cd",))), ("--",))
    )
    assert "DelimiterInAlphabet" in codes(
        Concat((FixedString(("ab",)), FixedString(("cd",))), ("a",))
    )


def test_concat_delim_count():
    bad = Concat((FixedString(("ab",)), FixedString(("cd",))), ("-", "-"))
    assert "BadParameter" in codes(bad)


def test_table_rules():
    assert "EmptyFormat" in codes(StringSet(()))
    assert "EmptyFormat" in codes(DelimStringSet((), "|"))
    assert "BadParameter" in codes(DelimStringSet(("a",)))
    assert "BadParameter" in codes(DelimStringSet(("a|",), "|", prefix_free=True))
    assert "BadDelimiter" in codes(DelimStringSet(("ab",), "|"))
    assert "BadDelimiter" in codes(DelimStringSet(("a|b|",), "|"))
    assert "NotPrefixFree" in codes(DelimStringSet(("car", "carpet"), prefix_free=True))


def test_table_duplicates_collapse():
    t = StringSet(("a", "b", "a"))
    assert t.strings == ("a", "b")


def test_union_overlap_rejected():
    u = Union((FixedString(("abc",)), FixedString(("cde",))))
    assert "OverlappingUnionAlphabets" in codes(u)


def test_union_double_empty_rejected():
    u = Union((VarString(0, 1, "ab"), VarString(0, 1, "01")))
    assert "AmbiguousUnion" in codes(u)


def test_concat_inseparable_rejected():
    c = Concat((VarString(1, 2, "ab"), VarString(1, 2, "bc")))
    assert "InseparableConcat" in codes(c)


def test_concat_separability_reaches_across_parts_that_can_be_empty():
    # with "y" empty the two integers touch: "1"+""+"12" and "11"+""+"2" collide
    c = Concat((IntegralDomain(1, 12), VarString(0, 1, "y"), IntegralDomain(1, 12)))
    assert "InseparableConcat" in codes(c)
    assert validate(Concat((IntegralDomain(1, 12), VarString(1, 1, "y"), IntegralDomain(1, 12)))) == []


def test_rigid_left_part_separates_shared_alphabet():
    c = Concat((FixedString(("ab", "ab")), VarString(0, 2, "ab")))
    assert validate(c) == []


def test_date_rules():
    assert "BadParameter" in codes(Date(datetime(2000, 1, 1), datetime(2000, 1, 2), "week"))
    assert "BadBounds" in codes(Date(datetime(2000, 1, 2), datetime(2000, 1, 1)))
    assert "BadParameter" in codes(Date(datetime(2000, 1, 1, 12), datetime(2000, 1, 2)))
    assert "BadParameter" in codes(
        Date(datetime(2000, 1, 1), datetime(2000, 1, 1, 0, 0, 0, 500), "second")
    )
    assert validate(Date(datetime(2000, 1, 1, 12), datetime(2000, 1, 2), "second")) == []


def test_date_bounds_with_a_utc_offset_are_refused():
    # a member is read as a naive datetime, which no aware bound can be compared with
    plus5 = timezone(timedelta(hours=5))
    aware = datetime(2020, 1, 1, tzinfo=plus5), datetime(2020, 2, 1, tzinfo=plus5)
    naive = datetime(2020, 1, 1), datetime(2020, 2, 1)
    for lo, hi in (aware, (naive[0], aware[1]), (aware[0], naive[1])):
        for gran in ("day", "second"):
            spec = Date(lo, hi, gran)
            assert [(v.code, v.message) for v in validate(spec)] == [
                ("BadParameter", "bounds must not carry a UTC offset")]
            for call in (lambda: encrypt(CipherConfig(), KEY, spec, "02.01.2020"),
                         lambda: rank(spec, "02.01.2020"), lambda: build_plan(spec, None)):
                with pytest.raises(InvalidFormat):
                    call()
    spec = parse_spec('{"type":"date","min":"2020-01-01T00:00:00Z","max":"2020-02-01"}')
    assert codes(spec) == {"BadParameter"}


def test_integral_bounds_stop_below_the_decimal_limit():
    # CPython writes and reads at most 4,300 digits (BOUND_LIMIT = 10**4300)
    edge = 10**4300 - 1
    spec = IntegralDomain(-edge, edge)
    assert validate(spec) == []
    assert unrank(spec, 0) == str(-edge) and unrank(spec, spec.size - 1) == str(edge)
    assert parse_spec(serialize_spec(spec)) == spec
    assert contains(spec, str(edge)) and not contains(spec, "1" + "0" * 4300)
    for lo, hi in ((0, edge + 1), (-edge - 1, 0), (0, 10**5000), (-(10**5000), 10**5000)):
        assert codes(IntegralDomain(lo, hi)) == {"BadBounds"}, (lo, hi)
        with pytest.raises(InvalidFormat):
            encrypt(CipherConfig(), KEY, IntegralDomain(lo, hi), "0")


def test_violation_paths_point_at_subtrees():
    spec = Concat((FixedString(("ab",)), Union((VarString(2, 1, "xy"),))))
    paths = {v.path for v in validate(spec)}
    assert ".parts[1].parts[0]" in paths


def test_ensure_valid_raises_with_details():
    with pytest.raises(InvalidFormat) as exc:
        ensure_valid(VarString(3, 1, "ab"))
    assert "BadBounds" in str(exc.value)


def test_size_alphabet_and_enumeration_refuse_an_invalid_format():
    # unchecked, the first counts -1 members and the last yields "a" and "aa" twice
    for spec in (VarString(3, 1, "a"), Concat((VarString(0, 2, "a"),) * 2), "not a spec"):
        for call in (size, alphabet, enumerate_members):
            with pytest.raises(InvalidFormat):
                call(spec)


def test_non_node_rejected():
    assert "BadParameter" in codes("not a spec")


# ---------------------------------------------------------------------------
# rigidity, size, alphabet


def test_rigid_table():
    assert Ssn().rigid
    assert Ccn().rigid
    assert Date(datetime(2000, 1, 1), datetime(2000, 1, 2)).rigid
    assert FixedString(("ab",)).rigid
    assert DelimVarString(1, 2, "ab", "-").rigid
    assert DelimStringSet(("a|",), "|").rigid
    assert not VarString(2, 2, "ab").rigid
    assert not StringSet(("a",)).rigid
    assert not IntegralDomain(0, 9).rigid
    assert not Union((FixedString(("ab",)),)).rigid
    assert not Concat((FixedString(("ab",)),)).rigid
    assert not Range(FixedString(("ab",)), "-", 1, 2).rigid


def test_size_matches_enumeration():
    for name, spec in SMALL_SPECS:
        members = list(enumerate_members(spec))
        assert len(members) == size(spec), name
        assert len(set(members)) == len(members), name


def test_size_pins():
    assert size(Ssn()) == 898 * 99 * 9999 == 888_931_098
    assert size(Ccn()) == 10**15
    assert size(Date(datetime(2000, 1, 1), datetime(2000, 1, 1))) == 1
    assert size(Date(datetime(1900, 1, 1), datetime(1900, 12, 31))) == 365
    assert size(VarString(0, 3, "ab")) == 1 + 2 + 4 + 8
    assert size(IntegralDomain(-5, 5)) == 11


def test_alphabet_covers_members():
    for name, spec in SMALL_SPECS:
        alpha = alphabet(spec)
        for s in enumerate_members(spec, limit=200):
            assert set(s) <= alpha, name


def test_charsets_normalize():
    f = FixedString(("bbaa", "10"))
    assert f.charsets == ("ab", "01")
    v = VarString(1, 2, "zza")
    assert v.alphabet == "az"


# ---------------------------------------------------------------------------
# membership


def test_membership_agrees_with_enumeration():
    for name, spec in SMALL_SPECS:
        for s in enumerate_members(spec, limit=300):
            assert contains(spec, s), (name, s)


def test_membership_rejects_near_misses():
    assert not contains(Ssn(), "66612345")
    assert not contains(Ssn(), "666123456")
    assert not contains(Ssn(), "000123456")
    assert not contains(Ssn(), "900123456")
    assert not contains(Ssn(), "123003456")
    assert not contains(Ssn(), "123450000")
    assert not contains(Ssn(), "12345678a")
    assert contains(Ssn(), "899999999")

    assert not contains(Ccn(), "0" * 15)
    assert not contains(Ccn(), "0" * 17)
    assert contains(Ccn(), "0" * 16)
    assert not contains(Ccn(), "0" * 15 + "5")

    d = Date(datetime(2000, 1, 1), datetime(2000, 12, 31))
    assert contains(d, "29.02.2000")
    assert not contains(d, "30.02.2000")
    assert not contains(d, "29.2.2000")
    assert not contains(d, "2000-02-29")
    assert not contains(d, "01.01.2001")

    i = IntegralDomain(-5, 120)
    assert contains(i, "-5")
    assert contains(i, "0")
    assert not contains(i, "05")
    assert not contains(i, "+5")
    assert not contains(i, "-0")
    assert not contains(i, "121")

    v = DelimVarString(1, 3, "ab", "-")
    assert contains(v, "ab-")
    assert not contains(v, "ab")
    assert not contains(v, "-")
    assert not contains(v, "abab-")


def test_compound_membership_is_parse_success():
    spec = Concat((VarString(1, 2, "ab"), VarString(1, 2, "01")))
    assert contains(spec, "ab01")
    assert not contains(spec, "ab")
    assert not contains(spec, "01ab0")

    r = Range(FixedString(("ab",)), "-", 1, 2)
    assert contains(r, "a-b-")
    assert not contains(r, "a-b")
    assert not contains(r, "a--")
    assert not contains(r, "a-b-a-")


# ---------------------------------------------------------------------------
# check digits


def independent_luhn_ok(s):
    """Right-to-left doubling, the textbook way; deliberately not the
    library's left-indexed formula."""
    total = 0
    for pos, ch in enumerate(reversed(s)):
        d = int(ch)
        if pos % 2 == 1:
            d = sum(divmod(2 * d, 10))
        total += d
    return total % 10 == 0


def test_luhn_pins():
    assert unrank(Ccn(), int("0" * 15)) == "0" * 16
    assert unrank(Ccn(), int("453201511283036")) == "4532015112830366"


@given(st.text(alphabet="0123456789", min_size=15, max_size=15))
def test_luhn_agrees_with_independent_validator(payload):
    assert independent_luhn_ok(unrank(Ccn(), int(payload)))


def loop_luhn_digit(digits):
    """The check digit of fifteen decimal digits as a loop over the
    characters, the reference for the library's slice sums."""
    total = 0
    for i, ch in enumerate(digits):
        d = ord(ch) - 48
        if i % 2 == 0:
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return str((10 - total % 10) % 10)


# digits outside ASCII (superscript, Arabic-Indic, fullwidth), signs, blanks
NOT_DECIMAL = "\u00b2\u0663\uff10+- \t.a"


def test_luhn_digit_agrees_with_the_character_loop():
    rng = random.Random(12)
    payloads = ["".join(rng.choices(DIGITS, k=15)) for _ in range(2000)]
    for p in payloads:
        assert formats._with_luhn_digit(p) == p + loop_luhn_digit(p), p
    # what the check digit is never computed for: a non-decimal payload
    # character, another length, a wrong check digit
    refused = ["", "1" * 15, "1" * 17, NOT_DECIMAL * 2]
    for p in payloads[:300]:
        i, check = rng.randrange(15), loop_luhn_digit(p)
        refused += [p[:i] + c + p[i + 1:] + check for c in NOT_DECIMAL]
        refused.append(p + str((int(check) + 1) % 10))
    for s in refused:
        assert not contains(Ccn(), s), s


def test_decimal_check_takes_ascii_digits_only():
    rng = random.Random(13)
    texts = ["", *DIGITS, *NOT_DECIMAL]
    texts += ["".join(rng.choices(DIGITS + NOT_DECIMAL, k=rng.randrange(1, 12))) for _ in range(500)]
    for t in texts:
        assert _all_decimal(t) == all("0" <= c <= "9" for c in t), t
    ssn, ccn = "123456789", "4532015112830366"
    day, second = "29.02.2000", "29.02.2000 23:59:58"
    date_day = Date(datetime(2000, 1, 1), datetime(2000, 12, 31))
    date_second = Date(datetime(2000, 1, 1), datetime(2000, 12, 31), "second")
    for spec, member in ((Ssn(), ssn), (Ccn(), ccn), (date_day, day), (date_second, second)):
        assert contains(spec, member)
        for i, ch in enumerate(member):
            if ch in DIGITS:
                for c in NOT_DECIMAL:
                    assert not contains(spec, member[:i] + c + member[i + 1:]), (member, i, c)


# ---------------------------------------------------------------------------
# parsing


def test_parse_failures():
    spec = Concat((VarString(1, 2, "ab"), VarString(1, 2, "cd")), ("-",))
    with pytest.raises(ParseFailure):
        spec.rank("ab_cd")
    with pytest.raises(ParseFailure):
        spec.rank("abc-cd")
    with pytest.raises(ParseFailure):
        Union((FixedString(("ab",)),)).rank("z")
    with pytest.raises(ParseFailure):
        Range(FixedString(("ab",)), "-", 2, 3).rank("a-")


# ---------------------------------------------------------------------------
# enumeration order


def test_enumeration_prefix_is_stable():
    got = list(enumerate_members(VarString(1, 2, "ab"), limit=6))
    assert got == ["a", "b", "aa", "ba", "ab", "bb"]


def test_enumeration_first_position_varies_fastest():
    got = list(enumerate_members(FixedString(("ab", "01"))))
    assert got == ["a0", "b0", "a1", "b1"]


def test_ssn_enumeration_starts_at_first_valid():
    got = list(enumerate_members(Ssn(), limit=3))
    assert got == ["001010001", "001010002", "001010003"]


def test_ccn_enumeration_carries_check_digit():
    got = list(enumerate_members(Ccn(), limit=3))
    assert got == ["0000000000000000", "0000000000000018", "0000000000000026"]
    assert all(independent_luhn_ok(s) for s in got)


def test_enumeration_respects_limit():
    assert len(list(enumerate_members(Ccn(), limit=10))) == 10


# ---------------------------------------------------------------------------
# rank and unrank functions


def test_rank_functions_hold_no_table_that_grows_with_length_times_alphabet():
    spec = VarString(0, 3000, string.ascii_letters + string.digits)
    member = "Zz9" * 1000
    tracemalloc.start()
    try:
        assert spec.unrank(spec.rank(member)) == member
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_sizing_and_ranking_a_long_string_holds_no_table_of_lengths():
    spec = VarString(0, 10_000, string.ascii_letters + string.digits)
    tracemalloc.start()
    try:
        n = size(spec)
        member = spec.unrank(n // 3)
        assert spec.rank(member) == n // 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_a_range_rank_function_holds_no_power_of_each_repetition():
    spec = Range(VarString(1, 10, string.ascii_letters), " ", 1, 1000)
    member = "Elm Street Dover "
    tracemalloc.start()
    try:
        size(spec)
        rank = spec.rank(member)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
    assert spec.unrank(rank) == member


def _repeated_a_divmod_at_a_time(spec, v):
    """The reference unrank of a Range: the repetition count by subtraction,
    then one divmod a repetition."""
    base, count = spec.inner.size, spec.min
    while v >= base**count:
        v, count = v - base**count, count + 1
    texts = []
    for _ in range(count):
        v, r = divmod(v, base)
        texts.append(spec.inner.unrank(r))
    return spec.delim.join(texts) + (spec.delim if spec.last_delimited else "")


@pytest.mark.parametrize("inner", [StringSet(("x",)), VarString(1, 1, "ab"), IntegralDomain(0, 6)],
                         ids=lambda inner: str(inner.size))
@pytest.mark.parametrize("last_delimited", [True, False])
def test_repetitions_match_a_reference_that_counts_them_first(inner, last_delimited):
    rng = random.Random(inner.size)
    for lo in range(1, 5):
        spec = Range(inner, ",", lo, lo + 3, last_delimited)
        for i, m in enumerate(enumerate_members(spec, 64)):
            assert spec.unrank(i) == m and spec.rank(m) == i, (lo, i)
        for i in [rng.randrange(size(spec)) for _ in range(200)] + [size(spec) - 1]:
            m = spec.unrank(i)
            assert m == _repeated_a_divmod_at_a_time(spec, i) and spec.rank(m) == i, (lo, i)


def _spelled_a_character_at_a_time(spec, v):
    """The reference unrank of a VarString or DelimVarString: one divmod a character."""
    base, length = len(spec.alphabet), spec.min
    while v >= base**length:
        v, length = v - base**length, length + 1
    chars = []
    for _ in range(length):
        v, d = divmod(v, base)
        chars.append(spec.alphabet[d])
    return "".join(chars) + spec.suffix


@pytest.mark.parametrize("alphabet", [(string.digits + string.ascii_letters)[:n]
                                      for n in (1, 2, 10, 26, 31, 32, 33, 62)], ids=len)
def test_one_alphabet_strings_are_spelled_k_characters_a_step(alphabet):
    base = len(alphabet)
    k = formats._spellings(alphabet)[0]
    assert base ** k <= formats.SPELL_LIMIT and (base == 1 or base ** (k + 1) > formats.SPELL_LIMIT)
    rng = random.Random(base)
    top = 2 * k + 1
    for make in (lambda lo: VarString(lo, top, alphabet),
                 lambda lo: DelimVarString(lo, top, alphabet, ",")):
        for lo in range(top + 1):  # from the first member of each length on
            spec = make(lo)
            for i, m in enumerate(enumerate_members(spec, 64)):
                assert spec.unrank(i) == m and spec.rank(m) == i, (lo, i)
        spec = make(0)
        for i in [rng.randrange(size(spec)) for _ in range(200)] + [size(spec) - 1]:
            m = spec.unrank(i)
            assert m == _spelled_a_character_at_a_time(spec, i) and spec.rank(m) == i, i


def _validate_into_calls(spec) -> Counter:
    """validate(spec)'s validate_into calls, by node."""
    calls = Counter()

    def note(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "validate_into":
            calls[id(frame.f_locals["self"])] += 1

    sys.setprofile(note)
    try:
        validate(spec)
    finally:
        sys.setprofile(None)
    return calls


def test_a_shared_subtree_is_validated_once():
    # the address tree's three word ranges share one word node: each of its 9
    # nodes is checked once, not once per reference (15 checks)
    spec = address_format()
    calls = _validate_into_calls(spec)
    assert len(calls) == 9 and set(calls.values()) == {1}
    assert validate(spec) == []
    # a clean subtree adds no violation at any path; a broken one is walked
    # again, and its violations are reported under each path that reaches it
    word = Concat((FixedString((",",)), VarString(1, 2, "ab")))
    broken = Concat((Range(word, ",", 1, 2), Range(word, ";", 1, 2)), (";",))
    assert [(v.path, v.code) for v in validate(broken)] == [(".parts[0]", "DelimiterInAlphabet")]
    bad = VarString(3, 1, "a")
    assert [v.path for v in validate(Concat((bad, Range(bad, ",", 1, 2)), None))] == [
        ".parts[0]", ".parts[1].inner"]


def test_the_deepest_tree_parse_spec_accepts_validates():
    # skipping a clean subtree adds no Python frame a level: the deepest nest of
    # ranges that parse_spec accepts here (330 from a bare interpreter)
    # validates clean, without a RecursionError
    texts = ['{"type":"fixed","charsets":["a-c"]}']
    while True:
        texts.append('{"type":"range","inner":%s,"delim":"\\u%04x","min":1,"max":2}'
                     % (texts[-1], 0x4e00 + len(texts)))
        try:
            parse_spec(texts[-1])
        except SpecSyntaxError:
            break
    spec = parse_spec(texts[-2])
    assert len(texts) > 200
    assert validate(spec) == []
    ensure_valid(spec)
