"""Rank/unrank bijections, checked against enumeration and closed forms."""

from datetime import date, datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpekit import (
    BadParameter,
    Ccn,
    Concat,
    Date,
    FixedString,
    IntegralDomain,
    NotInFormat,
    Range,
    RankOutOfRange,
    Ssn,
    Union,
    VarString,
    contains,
    count_invalid_ssn_below,
    date_offset,
    enumerate_members,
    offset_to_date,
    rank,
    size,
    unrank,
)
from fpekit.errors import OutOfRange
from fpekit.ranking import Rank, _ssn_valid_below

from corpus import PREFIX_SPECS, SMALL_SPECS

DIGITS = "0123456789"


# ---------------------------------------------------------------------------
# the enumeration oracle


def test_rank_equals_enumeration_index():
    for name, spec in SMALL_SPECS:
        for i, s in enumerate(enumerate_members(spec, limit=300)):
            assert rank(spec, s).value == i, (name, s)
            assert unrank(spec, i) == s, (name, i)


def test_prefix_specs_agree_on_their_first_members():
    for name, spec in PREFIX_SPECS:
        for i, s in enumerate(enumerate_members(spec, limit=1500)):
            assert unrank(spec, i) == s, (name, i)
            assert rank(spec, s).value == i, (name, s)


def test_round_trip_on_random_ranks(rng):
    for name, spec in SMALL_SPECS + PREFIX_SPECS:
        n = size(spec)
        for _ in range(40):
            r = rng.randrange(n)
            s = unrank(spec, r)
            assert rank(spec, s).value == r, (name, r)


# ---------------------------------------------------------------------------
# pinned orderings


def test_leftmost_unit_is_least_significant():
    spec = FixedString(("ab", "0123"))
    assert rank(spec, "b2").value == 1 + 2 * 2
    assert unrank(spec, 5) == "b2"
    assert [unrank(spec, i) for i in range(4)] == ["a0", "b0", "a1", "b1"]


def test_shorter_strings_rank_first():
    spec = VarString(1, 2, "ab")
    assert [unrank(spec, i) for i in range(6)] == ["a", "b", "aa", "ba", "ab", "bb"]
    assert rank(spec, "ba").value == 3


def test_union_offsets_by_declared_order():
    spec = Union((FixedString(("ab",)), FixedString((DIGITS,))))
    assert rank(spec, "7").value == 2 + 7
    assert unrank(spec, 1) == "b"


def test_range_orders_by_count_then_mixed_radix():
    spec = Range(FixedString(("ab",)), " ", 1, 2)
    assert rank(spec, "a b ").value == 4
    assert [unrank(spec, i) for i in range(6)] == [
        "a ", "b ", "a a ", "b a ", "a b ", "b b ",
    ]


def test_concat_weights_left_to_right():
    spec = Concat((FixedString(("ab",)), FixedString(("01",))))
    assert rank(spec, "b1").value == 1 + 1 * 2
    assert unrank(spec, 0) == "a0"


def test_rank_carries_domain_size():
    spec = FixedString(("abc",))
    r = rank(spec, "c")
    assert (r.value, r.domain_size) == (2, 3)
    assert unrank(spec, r) == "c"


# ---------------------------------------------------------------------------
# error paths


def test_rank_rejects_non_members():
    with pytest.raises(NotInFormat):
        rank(FixedString(("ab",)), "c")
    with pytest.raises(NotInFormat):
        rank(Ssn(), "666123456")


def test_unrank_bounds():
    spec = FixedString(("ab",))
    with pytest.raises(RankOutOfRange):
        unrank(spec, 2)
    with pytest.raises(RankOutOfRange):
        unrank(spec, -1)
    with pytest.raises(RankOutOfRange):
        Rank(5, 5)


@pytest.mark.parametrize("r", [2.7, 2.0, "5", True, None])
def test_unrank_takes_only_a_rank_or_an_int(r):
    with pytest.raises(BadParameter, match=f"not {type(r).__name__}$"):
        unrank(Ssn(), r)
    assert unrank(Ssn(), 5) == unrank(Ssn(), Rank(5, size(Ssn()))) == "001010006"


# ---------------------------------------------------------------------------
# nine-digit identifiers


def brute_force_valid_below(n):
    count = 0
    for v in range(n):
        s = f"{v:09d}"
        if (
            s[:3] not in ("000", "666")
            and s[:3] < "900"
            and s[3:5] != "00"
            and s[5:] != "0000"
        ):
            count += 1
    return count


def test_ssn_closed_form_against_brute_force_window():
    for n in (0, 1, 999_999, 1_010_001, 1_010_002, 2_000_000):
        assert _ssn_valid_below(n) == brute_force_valid_below(n), n


def test_ssn_closed_form_around_excluded_area(rng):
    # spot windows near the exclusions, each checked incrementally
    for start in (665_990_000, 666_000_000, 666_990_000, 899_990_000, 999_990_000):
        base = _ssn_valid_below(start)
        running = 0
        for v in range(start, start + 12_000):
            s = f"{v:09d}"
            if (
                s[:3] not in ("000", "666")
                and s[:3] < "900"
                and s[3:5] != "00"
                and s[5:] != "0000"
            ):
                running += 1
            assert _ssn_valid_below(v + 1) == base + running


def test_ssn_rank_pins():
    assert rank(Ssn(), "001010001").value == 0
    assert unrank(Ssn(), 0) == "001010001"
    assert unrank(Ssn(), size(Ssn()) - 1) == "899999999"
    assert rank(Ssn(), "899999999").value == size(Ssn()) - 1


def test_ssn_rank_is_numeric_order(rng):
    # the component encoding must count exactly the valid values below
    checked = 0
    while checked < 2000:
        s = f"{rng.randrange(10**9):09d}"
        if contains(Ssn(), s):
            assert rank(Ssn(), s).value == _ssn_valid_below(int(s)), s
            assert unrank(Ssn(), _ssn_valid_below(int(s))) == s
            checked += 1


def test_count_invalid_pins():
    assert count_invalid_ssn_below(0) == 0
    assert count_invalid_ssn_below(1_010_001) == 1_010_001
    assert count_invalid_ssn_below(10**9 - 1) == 10**9 - 1 - 888_931_098
    with pytest.raises(OutOfRange):
        count_invalid_ssn_below(10**9)
    with pytest.raises(OutOfRange):
        count_invalid_ssn_below(-1)


def test_ssn_round_trip_random(rng):
    n = size(Ssn())
    for _ in range(500):
        r = rng.randrange(n)
        s = unrank(Ssn(), r)
        assert len(s) == 9
        assert rank(Ssn(), s).value == r


# ---------------------------------------------------------------------------
# card numbers


def test_ccn_rank_is_payload_value():
    assert unrank(Ccn(), 0) == "0000000000000000"
    assert rank(Ccn(), "4532015112830366").value == 453_201_511_283_036
    assert unrank(Ccn(), 453_201_511_283_036) == "4532015112830366"


def test_ccn_round_trip_random(rng):
    for _ in range(500):
        r = rng.randrange(10**15)
        assert rank(Ccn(), unrank(Ccn(), r)).value == r


# ---------------------------------------------------------------------------
# calendar arithmetic


def test_date_offset_pins():
    assert date_offset(datetime(1900, 1, 1), datetime(1901, 1, 1), "day") == 365
    assert date_offset(datetime(2000, 2, 28), datetime(2000, 3, 1), "day") == 2
    assert date_offset(datetime(2000, 1, 1), datetime(2000, 1, 2, 0, 0, 1), "second") == 86_401


def test_date_offset_bounds():
    with pytest.raises(OutOfRange):
        date_offset(datetime(2000, 1, 1), datetime(1999, 12, 31), "day")
    with pytest.raises(OutOfRange):
        date_offset(datetime(2000, 1, 1), None, "day")
    with pytest.raises(OutOfRange):
        offset_to_date(datetime(2000, 1, 1), -1, "day")
    with pytest.raises(OutOfRange):
        offset_to_date(datetime(9999, 1, 1), 10**6, "day")


def test_date_rank_pins():
    spec = Date(datetime(1900, 1, 1), datetime(2013, 9, 23))
    assert rank(spec, "01.01.1900").value == 0
    assert rank(spec, "01.03.1900").value == 59
    assert unrank(spec, 59) == "01.03.1900"
    assert rank(spec, "23.09.2013").value == size(spec) - 1


def test_date_round_trip_random(rng):
    spec = Date(datetime(1900, 1, 1), datetime(2013, 9, 23))
    base = date(1900, 1, 1)
    n = size(spec)
    for _ in range(300):
        r = rng.randrange(n)
        s = unrank(spec, r)
        d = base + timedelta(days=r)
        assert s == f"{d.day:02d}.{d.month:02d}.{d.year:04d}"
        assert rank(spec, s).value == r


# ---------------------------------------------------------------------------
# properties


@given(
    lo=st.integers(min_value=-(10**6), max_value=10**6),
    span=st.integers(min_value=0, max_value=10**4),
    data=st.data(),
)
def test_integral_round_trip(lo, span, data):
    spec = IntegralDomain(lo, lo + span)
    r = data.draw(st.integers(min_value=0, max_value=span))
    s = unrank(spec, r)
    assert int(s) == lo + r
    assert rank(spec, s).value == r


@given(
    lo=st.integers(min_value=0, max_value=3),
    extra=st.integers(min_value=0, max_value=120),
    data=st.data(),
)
@settings(max_examples=60)
def test_var_string_round_trip_long_lengths(lo, extra, data):
    """Length recovery must hold on both the linear and binary search paths."""
    spec = VarString(lo, lo + extra, "ab")
    r = data.draw(st.integers(min_value=0, max_value=size(spec) - 1))
    s = unrank(spec, r)
    assert lo <= len(s) <= lo + extra
    assert rank(spec, s).value == r


@given(st.data())
@settings(max_examples=40)
def test_corpus_round_trip_property(data):
    name, spec = data.draw(st.sampled_from(SMALL_SPECS))
    r = data.draw(st.integers(min_value=0, max_value=size(spec) - 1))
    assert rank(spec, unrank(spec, r)).value == r, name
