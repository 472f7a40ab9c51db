"""Measurement tools: leakage groupings, identification curves, and the
cycle-walk cost of enciphering inside a simplified format.

The signature baseline (SGFPE) enciphers a string within its per-character
class pattern (upper, lower, digit, literal): it is the shipped cipher
applied to the fixed-length format that pattern describes, so it leaks the
full pattern. `SgfpeScheme` groups records by that pattern and
`GfpeScheme` by their path through a slot plan; an identification curve
quantifies the leakage of any such grouping. `expansion_and_cycles`
measures what encrypting inside a larger cover format costs in cycle-walk
applications.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from .errors import BadParameter, NotSubset
from .formats import Concat, FixedString, Range, VarString, ensure_valid
from .intfpe import IntFpeKey, WalkRecorder, cycle_walk_encrypt
from .ranking import rank, unrank
from .splitting import path_signature

__all__ = [
    "sgfpe_signature",
    "SgfpeScheme",
    "GfpeScheme",
    "IdentificationCurve",
    "BenchReport",
    "expansion_and_cycles",
    "records_format",
]

_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_LOWER = "abcdefghijklmnopqrstuvwxyz"


# ---------------------------------------------------------------------------
# leakage groupings and identification curves


def sgfpe_signature(s: str) -> tuple:
    """Per-character class pattern: U, l, d, or the literal character."""
    if not s:
        raise BadParameter("empty string has no signature")
    out = []
    for c in s:
        if "A" <= c <= "Z":
            out.append("U")
        elif "a" <= c <= "z":
            out.append("l")
        elif "0" <= c <= "9":
            out.append("d")
        else:
            out.append(c)
    return tuple(out)


@dataclass(frozen=True)
class SgfpeScheme:
    """Groups records by their full character-class signature."""

    def group_key(self, record: str):
        return sgfpe_signature(record)


@dataclass(frozen=True)
class GfpeScheme:
    """Groups records by the variant path through a format's slot plan."""

    spec: object
    max_size: int | None

    def group_key(self, record: str):
        return path_signature(self.spec, self.max_size, record)


@dataclass(frozen=True)
class IdentificationCurve:
    """Per-record identification probabilities, ascending and exact."""

    probs: tuple

    @classmethod
    def of_groups(cls, keys):
        """The curve of records whose group keys are `keys`: an adversary
        seeing only the grouping guesses uniformly inside each group."""
        counts = Counter(keys)
        return cls(tuple(sorted(Fraction(1, counts[k]) for k in keys)))

    def fraction_at(self, p) -> Fraction:
        """Share of records identified with probability at least p."""
        i = bisect.bisect_left(self.probs, p)
        return Fraction(len(self.probs) - i, len(self.probs))

    @property
    def points(self) -> tuple:
        """(threshold, fraction) pairs at every distinct probability."""
        out = []
        for t in sorted(set(self.probs)):
            out.append((t, self.fraction_at(t)))
        return tuple(out)


# ---------------------------------------------------------------------------
# expansion and cycle-walk cost


# The walk's key has 6 rounds, not the shipped 12: the expected walk length
# depends on the two sizes only, and a 6-round pass makes half the XOF calls.
BENCH_ROUNDS = 6
# Random members of the original checked to lie in the simplified format
# before any timing: the worked formats are too large to check every member.
SUBSET_SAMPLES = 256


@dataclass(frozen=True)
class BenchReport:
    trials: int
    al_cy: float
    expansion: Fraction
    t_rank: float
    t_int_enc: float
    t_unrank: float
    t_enc: float
    walk_histogram: dict


def expansion_and_cycles(
    original,
    simplified,
    trials: int = 1000,
    seed: int = 0,
) -> BenchReport:
    """Encrypt members of `original` inside the rank space of `simplified`
    with the cipher's cycle walk, walked on until the image is in `original`,
    and count how many permutation applications each encryption makes.

    Per-application time includes the landing test (unrank plus membership),
    so mean encryption time decomposes as rank + walk * per-application +
    final unrank.
    """
    ensure_valid(original)
    ensure_valid(simplified)
    n_orig, n_simp = original.size, simplified.size
    rng = random.Random(seed)
    for i in range(SUBSET_SAMPLES):
        s = unrank(original, rng.randrange(n_orig))
        if not simplified.contains(s):
            raise NotSubset(f"sample {i} (length {len(s)}) is outside the simplified format")

    key = IntFpeKey(rng.randbytes(32), rounds=BENCH_ROUNDS)
    tweak = b"bench"
    hist: dict[int, int] = {}
    t_rank = t_walk = t_unrank = 0.0
    for _ in range(trials):
        m = unrank(original, rng.randrange(n_orig))
        t0 = perf_counter()
        y = rank(simplified, m).value
        t1 = perf_counter()
        walked = WalkRecorder()
        y = cycle_walk_encrypt(key, tweak, n_simp, y, recorder=walked)
        while not original.contains(unrank(simplified, y)):
            y = cycle_walk_encrypt(key, tweak, n_simp, y, recorder=walked)
        t2 = perf_counter()
        steps = sum(s for _, s in walked.events)
        unrank(simplified, y)
        t3 = perf_counter()
        t_rank += t1 - t0
        t_walk += t2 - t1
        t_unrank += t3 - t2
        hist[steps] = hist.get(steps, 0) + 1

    total_steps = sum(s * c for s, c in hist.items())
    return BenchReport(
        trials=trials,
        al_cy=total_steps / trials,
        expansion=Fraction(n_simp, n_orig),
        t_rank=t_rank / trials,
        t_int_enc=t_walk / max(total_steps, 1),
        t_unrank=t_unrank / trials,
        t_enc=(t_rank + t_walk + t_unrank) / trials,
        walk_histogram=hist,
    )


# ---------------------------------------------------------------------------
# the records format of the leakage measurements


def records_format() -> Concat:
    """name,town records: capitalized words, 1-3 word names, 1-2 word towns."""
    word = Concat((FixedString((_UPPER,)), VarString(1, 7, _LOWER)))
    name = Range(word, " ", 1, 3, last_delimited=False)
    town = Range(word, " ", 1, 2, last_delimited=False)
    return Concat((name, town), (",",))
