"""Shared format corpus: small specs checked exhaustively, large ones by prefix.

Every entry in SMALL_SPECS has at most 10**4 members so enumeration is an
affordable oracle. PREFIX_SPECS hold the primitives whose sizes are fixed
far above that (nine-digit ids, card numbers) plus compounds around them;
those are checked against a bounded prefix of the member stream instead.
"""

from datetime import datetime

from fpekit import (
    Ccn,
    Concat,
    Date,
    DelimStringSet,
    DelimVarString,
    FixedString,
    IntegralDomain,
    Range,
    Ssn,
    StringSet,
    Union,
    VarString,
)

DIGITS = "0123456789"


def _d(y, m, d):
    return datetime(y, m, d)


SMALL_SPECS = [
    ("fixed_single", FixedString(("abc",))),
    ("fixed_multi", FixedString(("ab", "01", "xy"))),
    ("fixed_digits", FixedString((DIGITS, DIGITS))),
    ("var_basic", VarString(1, 3, "ab")),
    ("var_with_empty", VarString(0, 2, "xyz")),
    ("var_one_length", VarString(2, 2, "abc")),
    ("var_wide", VarString(0, 4, "abcde")),
    ("delim_var", DelimVarString(1, 3, "ab", "-")),
    ("delim_var_zero", DelimVarString(0, 2, "01", "#")),
    ("date_days", Date(_d(2000, 1, 1), _d(2000, 4, 9))),
    ("date_leap", Date(_d(2000, 2, 20), _d(2000, 3, 10))),
    ("date_year", Date(_d(2000, 1, 1), _d(2002, 9, 26))),
    (
        "date_seconds",
        Date(datetime(1999, 12, 31, 23, 59, 0), datetime(2000, 1, 1, 0, 0, 39), "second"),
    ),
    ("table_delim", DelimStringSet(("ab|", "c|", "|"), "|")),
    ("table_prefix_free", DelimStringSet(("cat", "dog", "bird"), prefix_free=True)),
    ("table_large", DelimStringSet(tuple(f"w{i:03d}." for i in range(500)), ".")),
    ("table_plain", StringSet(("foo", "ba", "z", "qux"))),
    ("integral_small", IntegralDomain(0, 99)),
    ("integral_negative", IntegralDomain(-5, 5)),
    ("integral_singleton", IntegralDomain(7, 7)),
    ("integral_width_step", IntegralDomain(990, 1200)),
    ("union_two", Union((FixedString(("abc",)), FixedString(("012",))))),
    (
        "union_mixed",
        Union((VarString(0, 1, "ab"), FixedString(("01",)), DelimStringSet(("x-",), "-"))),
    ),
    ("union_int_var", Union((IntegralDomain(10, 29), VarString(1, 2, "abc")))),
    ("concat_delims", Concat((VarString(1, 2, "ab"), VarString(1, 2, "cd")), ("-",))),
    ("concat_rigid_left", Concat((FixedString(("ab", "cd")), VarString(0, 2, "ab")))),
    ("concat_disjoint", Concat((VarString(1, 2, "ab"), VarString(1, 2, "01")))),
    (
        "concat_three_rigid",
        Concat((FixedString(("ab",)), Date(_d(2000, 1, 1), _d(2000, 1, 10)), IntegralDomain(0, 4))),
    ),
    ("concat_wide", Concat((FixedString((DIGITS, DIGITS)), VarString(1, 2, "ab")))),
    ("range_delimited", Range(FixedString(("ab",)), "-", 1, 3)),
    ("range_bare", Range(VarString(1, 2, "xy"), ",", 1, 2, last_delimited=False)),
    ("range_fixed_count", Range(FixedString(("abc",)), "/", 2, 2)),
    ("range_wide", Range(FixedString(("abcd",)), "-", 1, 5)),
    ("range_of_dates", Range(Date(_d(2000, 1, 1), _d(2000, 1, 5)), " ", 1, 2, last_delimited=False)),
    ("union_of_ranges", Union((Range(FixedString(("ab",)), "-", 1, 2), VarString(1, 2, "xy")))),
    ("concat_of_range", Concat((Range(FixedString(("ab",)), ".", 1, 2), FixedString(("01",))))),
    ("range_of_concat", Range(Concat((FixedString(("ab",)), FixedString(("01",)))), "-", 1, 2)),
    (
        "union_in_concat",
        Concat((Union((FixedString(("ab",)), FixedString(("01",)))), VarString(1, 1, "xy"))),
    ),
    ("range_of_union", Range(Union((FixedString(("ab",)), IntegralDomain(0, 3))), "-", 1, 2)),
]

PREFIX_SPECS = [
    ("ssn", Ssn()),
    ("ccn", Ccn()),
    ("date_century", Date(_d(1900, 1, 1), _d(2013, 9, 23))),
    ("concat_tagged_ssn", Concat((FixedString(("ab",)), Ssn()))),
    ("union_ssn_words", Union((Ssn(), VarString(1, 3, "abc")))),
]

LOWER = "abcdefghijklmnopqrstuvwxyz"


def address_format():
    """A new tree of the acceptance suite's address record: street, town,
    number, zip, country, the three word ranges sharing one word node."""
    word = Concat((FixedString((LOWER.upper(),)), VarString(1, 9, LOWER)))
    return Concat(
        (
            Range(word, " ", 2, 4, last_delimited=False),
            Range(word, " ", 1, 3, last_delimited=False),
            IntegralDomain(1, 9999),
            FixedString((DIGITS,) * 5),
            Range(word, " ", 1, 2, last_delimited=False),
        ),
        (",", ",", ",", ","),
    )


ADDRESS = address_format()


def by_name(name):
    for n, spec in SMALL_SPECS + PREFIX_SPECS:
        if n == name:
            return spec
    raise KeyError(name)
