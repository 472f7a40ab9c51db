"""Seeded inputs for the fpekit benchmark.

Nothing here imports fpekit: the program under test receives only the
strings built here and a key derived from the seed. The same seed always
gives the same inputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from datetime import date, timedelta

UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
LOWER = "abcdefghijklmnopqrstuvwxyz"
DIGITS = "0123456789"


def key_bytes(seed: int) -> bytes:
    """The 32-byte secret every workload run under this seed uses."""
    return hashlib.sha256(b"fpekit perfbench key %d" % seed).digest()


# ---------------------------------------------------------------------------
# formats, as the JSON text a user would hand to fpekit


def _word_spec(max_lower: int) -> dict:
    return {"type": "concat", "parts": [
        {"type": "fixed", "charsets": ["A-Z"]},
        {"type": "var", "min": 1, "max": max_lower, "alphabet": "a-z"},
    ]}


def _words_spec(lo: int, hi: int, max_lower: int) -> dict:
    return {"type": "range", "inner": _word_spec(max_lower), "delim": " ",
            "min": lo, "max": hi, "last_delimited": False}


# The acceptance suite's address format: street words, town words, house
# number, five-digit zip, country words. It has more than 2^300 members.
ADDRESS_SPEC = json.dumps({
    "type": "concat",
    "delims": [",", ",", ",", ","],
    "parts": [
        _words_spec(2, 4, 9),
        _words_spec(1, 3, 9),
        {"type": "integral", "min": 1, "max": 9999},
        {"type": "fixed", "charsets": ["0-9"] * 5},
        _words_spec(1, 2, 9),
    ],
})

# fpekit.analysis.records_format: "name,town" with capitalised words.
NAME_SPEC = json.dumps({
    "type": "concat",
    "delims": [","],
    "parts": [_words_spec(1, 3, 7), _words_spec(1, 2, 7)],
})

DOB_MIN = date(1900, 1, 1)
DOB_MAX = date(2013, 9, 23)

CSV_SPECS = {
    "ssn": json.dumps({"type": "ssn"}),
    "ccn": json.dumps({"type": "ccn"}),
    "dob": json.dumps({"type": "date", "min": DOB_MIN.isoformat(), "max": DOB_MAX.isoformat()}),
    "name": NAME_SPEC,
}
CSV_HEADER = ["id", "ssn", "ccn", "dob", "name"]


# ---------------------------------------------------------------------------
# members


def _word(rng, max_lower: int) -> str:
    return rng.choice(UPPER) + "".join(rng.choices(LOWER, k=rng.randint(1, max_lower)))


def _words(rng, lo: int, hi: int, max_lower: int) -> str:
    """lo..hi words; word counts and lengths vary uniformly."""
    return " ".join(_word(rng, max_lower) for _ in range(rng.randint(lo, hi)))


def _pick(rng, weights) -> int:
    """An index drawn with probability proportional to its integer weight."""
    r = rng.randrange(sum(weights))
    for i, w in enumerate(weights):
        if r < w:
            return i
        r -= w
    raise AssertionError("unreachable")


def _uniform_words(rng, lo: int, hi: int, max_lower: int) -> str:
    """A uniformly drawn member of _words_spec(lo, hi, max_lower)."""
    tails = [26**n for n in range(1, max_lower + 1)]
    per_word = 26 * sum(tails)
    count = lo + _pick(rng, [per_word**k for k in range(lo, hi + 1)])
    return " ".join(
        rng.choice(UPPER) + "".join(rng.choices(LOWER, k=1 + _pick(rng, tails)))
        for _ in range(count)
    )


def address(rng) -> str:
    """A uniformly drawn member of ADDRESS_SPEC, as the acceptance suite
    draws them: almost every word has nine letters and every range its
    largest count, which is what makes the split plan about 40 slots."""
    return ",".join((
        _uniform_words(rng, 2, 4, 9),
        _uniform_words(rng, 1, 3, 9),
        str(rng.randint(1, 9999)),
        "".join(rng.choices(DIGITS, k=5)),
        _uniform_words(rng, 1, 2, 9),
    ))


def ssn(rng) -> str:
    area = rng.choice([a for a in range(1, 900) if a != 666])
    return f"{area:03d}{rng.randint(1, 99):02d}{rng.randint(1, 9999):04d}"


def luhn_check_digit(body: str) -> str:
    total = 0
    for i, c in enumerate(reversed(body)):
        d = int(c)
        if i % 2 == 0:
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return str(-total % 10)


def ccn(rng) -> str:
    body = "".join(rng.choices(DIGITS, k=15))
    return body + luhn_check_digit(body)


def dob(rng) -> str:
    d = DOB_MIN + timedelta(days=rng.randint(0, (DOB_MAX - DOB_MIN).days))
    return f"{d.day:02d}.{d.month:02d}.{d.year:04d}"


def name(rng) -> str:
    return f"{_words(rng, 1, 3, 7)},{_words(rng, 1, 2, 7)}"


_CELL = {"ssn": ssn, "ccn": ccn, "dob": dob, "name": name}


def csv_rows(rng, first_id: int, rows: int) -> list:
    """Data rows: a pass-through id, then one member per mapped column."""
    return [[f"r{first_id + i:06d}"] + [_CELL[c](rng) for c in CSV_HEADER[1:]]
            for i in range(rows)]


def csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return buf.getvalue()
