"""Ranking is the membership check: one checked walk per record.

Every entry point that ranks (encrypt, decrypt, rank_multi, ranking.rank)
rejects a non-member with a plain NotInFormat that gives the length, under
every slot bound, and no other exception type escapes the walk.
"""

from datetime import datetime, timedelta, timezone

import pytest

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
    Range,
    Ssn,
    StringSet,
    Union,
    VarString,
    contains,
    decrypt,
    encrypt,
    path_signature,
    rank_multi,
    ranking,
    unrank_multi,
)
from fpekit.errors import BadParameter, InvalidFormat, NotInFormat

from corpus import ADDRESS

KEY = IntFpeKey(bytes(range(32)))
UNION = Union((FixedString(("abc",)), FixedString(("012",))))
RANGE = Range(FixedString(("ab",)), "-", 1, 2)

NON_MEMBERS = [
    (Ccn(), "4532015112830367"),  # the Luhn digit is 6
    (Ccn(), "453201511283036x"),
    (Ssn(), "000121234"),
    (Ssn(), "666121234"),
    (Ssn(), "912121234"),
    (Ssn(), "12a121234"),
    (IntegralDomain(0, 99), "07"),
    (IntegralDomain(0, 99), "+7"),
    (IntegralDomain(0, 99), " 7"),
    (IntegralDomain(0, 99), "100"),
    (Date(datetime(2000, 1, 1), datetime(2000, 4, 9)), "10.04.2000"),  # past max
    (Date(datetime(2000, 1, 1), datetime(2000, 4, 9)), "31.02.2000"),
    (StringSet(("ab", "cd")), "ef"),
    (DelimStringSet(("ab|", "c|"), "|"), "d|"),
    (DelimStringSet(("ab", "c"), prefix_free=True), "d"),
    (UNION, "x"),  # a lead character no part uses
    (UNION, "0bc"),
    (RANGE, "a-b-a-"),  # three repetitions, at most two
    (RANGE, "a-b"),  # no final delimiter
    (FixedString(("ab", "01")), "a0b"),  # one character too long
    (VarString(1, 3, "ab"), "abab"),
    (VarString(1, 3, "ab"), "ac"),
    (DelimVarString(1, 3, "ab", "-"), "ab"),
    (DelimVarString(1, 3, "ab", "-"), "aba"),  # a one-length band lacking its delimiter
    (Concat((FixedString(("ab",)), VarString(1, 2, "01"))), "a"),
    (Concat((VarString(1, 2, "ab"), VarString(1, 2, "cd")), ("-",)), "ab-cd-"),
    (ADDRESS, "Elm Street,Dover,42,012345,France"),
    (Date(datetime(2000, 1, 1), datetime(2000, 4, 9)), "31.12.1999"),  # before min
]


@pytest.mark.parametrize("bound", [None, 2, 2**16])
@pytest.mark.parametrize("spec,text", NON_MEMBERS)
def test_non_members_raise_only_not_in_format(spec, text, bound):
    assert not contains(spec, text)
    cfg = CipherConfig(max_size=bound)
    for call in (
        lambda: encrypt(cfg, KEY, spec, text),
        lambda: decrypt(cfg, KEY, spec, text),
        lambda: rank_multi(spec, bound, text),
        lambda: ranking.rank(spec, text),
    ):
        with pytest.raises(NotInFormat) as err:
            call()
        assert err.type is NotInFormat
        assert str(err.value) == f"a string of length {len(text)} is not in the format"


@pytest.mark.parametrize("bound", [None, 2**16])
def test_an_address_record_is_walked_without_a_membership_pass(bound, monkeypatch):
    calls = []
    real = type(ADDRESS).contains

    def counting(self, s):
        if self is ADDRESS:
            calls.append(len(s))
        return real(self, s)

    monkeypatch.setattr(type(ADDRESS), "contains", counting)
    cfg = CipherConfig(max_size=bound)
    record = "Elm Street,Dover,42,12345,France"
    c = encrypt(cfg, KEY, ADDRESS, record)
    assert decrypt(cfg, KEY, ADDRESS, c) == record
    assert calls == []


@pytest.mark.parametrize("value", [5, b"123456789", None, ["1"]])
@pytest.mark.parametrize("bound", [None, 100])
def test_a_member_that_is_not_text_is_a_bad_parameter(value, bound):
    cfg = CipherConfig(max_size=bound)
    ssn_vector = rank_multi(Ssn(), bound, "123456789")
    for call in (
        lambda: encrypt(cfg, KEY, Ssn(), value),
        lambda: decrypt(cfg, KEY, Ssn(), value),
        lambda: encrypt(cfg, KEY, ADDRESS, value),
        lambda: rank_multi(Ssn(), bound, value),
        lambda: unrank_multi(Ssn(), bound, ssn_vector, value),
        lambda: path_signature(Ssn(), bound, value),
        lambda: ranking.rank(Ssn(), value),
    ):
        with pytest.raises(BadParameter, match=f"not {type(value).__name__}$"):
            call()


@pytest.mark.parametrize("spec, value", [(Ssn(), b"123456789"), (VarString(1, 3, "ab"), 5)])
def test_contains_is_a_bad_parameter_for_a_value_that_is_not_text(spec, value):
    with pytest.raises(BadParameter, match=f"not {type(value).__name__}$"):
        contains(spec, value)


def test_contains_refuses_an_invalid_format_as_rank_does():
    utc = timezone(timedelta(hours=5))
    offset_bounds = Date(datetime(2020, 1, 1, tzinfo=utc), datetime(2020, 2, 1, tzinfo=utc))
    ambiguous = Concat((VarString(0, 2, "a"), VarString(0, 2, "a")))
    for spec, text in ((offset_bounds, "02.01.2020"), (ambiguous, "aa")):
        for call in (ranking.rank, contains):
            with pytest.raises(InvalidFormat):
                call(spec, text)
