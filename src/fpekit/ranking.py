"""Rank and unrank: bijections between format members and 0..size-1.

Ranking is mixed-radix with the first (leftmost) unit least significant.
For variable-length and repeated shapes, the count of all shorter members
is added in front, so members sort by length first. Each format node
builds its own rank and unrank functions once (`_make_ranker` and
`_make_unranker` in `formats`, behind `Node.rank` and `Node.unrank`); this
module holds the checked public entry points, the `Rank` value they
return, and the nine-digit counting helper kept as an independent check on
the SSN order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParameter, NotInFormat, OutOfRange, ParseFailure, RankOutOfRange
from .formats import SSN_SIZE, date_offset, ensure_valid, luhn_digit, offset_to_date
from .splitting import check_text

__all__ = [
    "Rank",
    "rank",
    "unrank",
    "luhn_digit",
    "count_invalid_ssn_below",
    "date_offset",
    "offset_to_date",
]


@dataclass(frozen=True)
class Rank:
    """A position inside a format of a known size."""

    value: int
    domain_size: int

    def __post_init__(self):
        if not 0 <= self.value < self.domain_size:
            raise RankOutOfRange(
                f"rank {self.value} not in [0, {self.domain_size})"
            )


def rank(spec, s: str) -> Rank:
    """Position of s in the format's canonical order."""
    ensure_valid(spec)
    check_text(s)
    try:
        value = spec.rank(s)
    except ParseFailure:
        raise NotInFormat.of(s) from None
    return Rank(value, spec.size)


def unrank(spec, r) -> str:
    """The member at position r; accepts a Rank or an int, nothing that
    int() would read as one (a float, a digit string, a bool)."""
    ensure_valid(spec)
    value = r.value if isinstance(r, Rank) else r
    if type(value) is not int:
        raise BadParameter(f"a rank must be a Rank or an int, not {type(value).__name__}")
    if not 0 <= value < spec.size:
        raise RankOutOfRange(f"rank {value} not in [0, {spec.size})")
    return spec.unrank(value)


# ---------------------------------------------------------------------------
# nine-digit identifiers


def _ssn_valid_below(n: int) -> int:
    # valid nine-digit values strictly below n, for n in [0, 10**9]
    area, rest = divmod(n, 1_000_000)
    if area > 899:
        return SSN_SIZE
    group, serial = divmod(rest, 10_000)
    full_areas = max(area - 1, 0) - (1 if area > 666 else 0)
    count = full_areas * (99 * 9999)
    if area not in (0, 666):
        count += max(group - 1, 0) * 9999
        if group != 0:
            count += max(serial - 1, 0)
    return count


def count_invalid_ssn_below(n: int) -> int:
    """Nine-digit values below n that break the area/group/serial rules."""
    if not 0 <= n < 10**9:
        raise OutOfRange(f"{n} not in [0, 10**9)")
    return n - _ssn_valid_below(n)
