"""Rank and unrank: bijections between format members and 0..size-1.

Ranking is mixed-radix with the first (leftmost) unit least significant.
Variable-length and repeated shapes count in bijective numeration (digits
1..base), so fewer pieces come first. Each format node
builds its own rank and unrank functions once (`_make_ranker` and
`_make_unranker` in `formats`, behind `Node.rank` and `Node.unrank`); this
module holds the checked public entry points, `rank` and `unrank`, and
the `Rank` value they return.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParameter, NotInFormat, ParseFailure, RankOutOfRange, decimal_text, outside
from .formats import ensure_valid
from .splitting import check_text

__all__ = ["Rank", "rank", "unrank"]


@dataclass(frozen=True)
class Rank:
    """A position inside a format of a known size."""

    value: int
    domain_size: int

    def __post_init__(self):
        if not 0 <= self.value < self.domain_size:
            raise RankOutOfRange(outside(self.value, self.domain_size))

    def __repr__(self):
        return f"Rank(value={decimal_text(self.value)}, domain_size={decimal_text(self.domain_size)})"


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
        raise RankOutOfRange(outside(value, spec.size))
    return spec.unrank(value)
