"""Measurement tools: the signature baseline, identification curves,
distinguishing-advantage simulation, and expansion/walk benchmarks.

The signature baseline enciphers a string within its per-character class
pattern (upper, lower, digit, literal), which leaks the full pattern. The
identification curve quantifies such leakage for any grouping scheme, and
the benchmark measures what simplifying a format to its signature costs in
cycle-walk applications.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from datetime import datetime
from fractions import Fraction
from time import perf_counter

from .errors import BadParameter, NotSubset
from .formats import (
    Ccn,
    Concat,
    Date,
    DelimStringSet,
    FixedString,
    Range,
    Ssn,
    VarString,
    DIGITS,
    ensure_valid,
)
from .intfpe import WALK_BUDGET, IntFpeKey, cycle_walk_decrypt, cycle_walk_encrypt, feistel_encrypt
from .ranking import rank, unrank
from .splitting import path_signature

__all__ = [
    "sgfpe_signature",
    "signature_format",
    "sgfpe_encrypt",
    "sgfpe_decrypt",
    "SgfpeScheme",
    "GfpeScheme",
    "IdentificationCurve",
    "identification_curve",
    "MrEstimate",
    "mr_advantage_sparse",
    "attribute_class_count",
    "BenchReport",
    "expansion_and_cycles",
    "transaction_format",
    "transaction_simplified",
    "records_format",
    "synthetic_records",
]

_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_LOWER = "abcdefghijklmnopqrstuvwxyz"


# ---------------------------------------------------------------------------
# signature-pattern encryption (the baseline scheme)


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


def signature_format(sig) -> FixedString:
    """The fixed-length format a signature describes."""
    charsets = []
    for t in sig:
        if t == "U":
            charsets.append(_UPPER)
        elif t == "l":
            charsets.append(_LOWER)
        elif t == "d":
            charsets.append(DIGITS)
        else:
            charsets.append(t)
    return FixedString(tuple(charsets))


def _sig_tweak(sig) -> bytes:
    return b"sgfpe|" + "".join(sig).encode("utf-8")


def _sgfpe_walk(walk, key: IntFpeKey, s: str, sig, f, walk_budget: int) -> str:
    """s, of signature sig and signature format f, mapped by a cycle walk."""
    r = rank(f, s).value
    return unrank(f, walk(key, _sig_tweak(sig), f.size, r, walk_budget))


def sgfpe_encrypt(key: IntFpeKey, s: str, walk_budget: int = WALK_BUDGET) -> str:
    """Encipher within the signature pattern; the pattern itself is exposed."""
    sig = sgfpe_signature(s)
    return _sgfpe_walk(cycle_walk_encrypt, key, s, sig, signature_format(sig), walk_budget)


def sgfpe_decrypt(key: IntFpeKey, s: str, walk_budget: int = WALK_BUDGET) -> str:
    sig = sgfpe_signature(s)
    return _sgfpe_walk(cycle_walk_decrypt, key, s, sig, signature_format(sig), walk_budget)


# ---------------------------------------------------------------------------
# identification curves


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


def identification_curve(records, scheme) -> IdentificationCurve:
    """An adversary seeing only the scheme's grouping guesses uniformly
    inside each group; the curve is that success probability's tail."""
    keys = [scheme.group_key(r) for r in records]
    counts: dict = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    probs = sorted(Fraction(1, counts[k]) for k in keys)
    return IdentificationCurve(tuple(probs))


# ---------------------------------------------------------------------------
# distinguishing advantage on sparse message sets


@dataclass(frozen=True)
class MrEstimate:
    k: int
    trials: int
    advantage: float
    expected: float
    std_err: float


def mr_advantage_sparse(k: int, trials: int, seed: int = 0) -> MrEstimate:
    """Simulate the length-revealing attack on k messages of distinct lengths.

    The adversary matches ciphertext length against the known message set;
    the reference guesser picks uniformly. Their success-rate difference
    estimates the advantage, which the pattern leak drives to 1 - 1/k.
    """
    if k < 2:
        raise BadParameter("need at least two messages")
    rng = random.Random(seed)
    messages = [
        "".join(rng.choice(_LOWER) for _ in range(length))
        for length in range(1, k + 1)
    ]
    by_len = {len(m): m for m in messages}
    # each message's signature and format, built once for the run
    sigs = {m: sgfpe_signature(m) for m in messages}
    shapes = {m: (sig, signature_format(sig)) for m, sig in sigs.items()}
    wins_attack = 0
    wins_uniform = 0
    for _ in range(trials):
        key = IntFpeKey(rng.randbytes(32))
        m = messages[rng.randrange(k)]
        c = _sgfpe_walk(cycle_walk_encrypt, key, m, *shapes[m], WALK_BUDGET)
        if by_len.get(len(c)) == m:
            wins_attack += 1
        if messages[rng.randrange(k)] == m:
            wins_uniform += 1
    p = 1.0 / k
    return MrEstimate(
        k=k,
        trials=trials,
        advantage=(wins_attack - wins_uniform) / trials,
        expected=1.0 - p,
        std_err=math.sqrt(p * (1.0 - p) / trials),
    )


def attribute_class_count(max_words: int, letters_per_word: int) -> int:
    """How many distinct word-count/word-length patterns a name format has."""
    return sum(letters_per_word**w for w in range(1, max_words + 1))


# ---------------------------------------------------------------------------
# expansion and cycle-walk cost


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
    rounds: int = 6,
    subset_samples: int = 256,
) -> BenchReport:
    """Encrypt members of `original` inside the rank space of `simplified`
    and count how many permutation applications each encryption walks.

    Per-application time includes the landing test (unrank plus membership),
    so mean encryption time decomposes as rank + walk * per-application +
    final unrank.
    """
    ensure_valid(original)
    ensure_valid(simplified)
    n_orig, n_simp = original.size, simplified.size
    rng = random.Random(seed)
    for i in range(subset_samples):
        s = unrank(original, rng.randrange(n_orig))
        if not simplified.contains(s):
            raise NotSubset(f"sample {i} (length {len(s)}) is outside the simplified format")

    key = IntFpeKey(rng.randbytes(32), rounds=rounds)
    tweak = b"bench"
    hist: dict[int, int] = {}
    total_steps = 0
    t_rank = t_walk = t_unrank = 0.0
    for _ in range(trials):
        m = unrank(original, rng.randrange(n_orig))
        t0 = perf_counter()
        y = rank(simplified, m).value
        t1 = perf_counter()
        steps = 0
        while True:
            y = feistel_encrypt(key, tweak, n_simp, y)
            steps += 1
            if y < n_simp and original.contains(unrank(simplified, y)):
                break
        t2 = perf_counter()
        unrank(simplified, y)
        t3 = perf_counter()
        t_rank += t1 - t0
        t_walk += t2 - t1
        t_unrank += t3 - t2
        total_steps += steps
        hist[steps] = hist.get(steps, 0) + 1

    return BenchReport(
        trials=trials,
        al_cy=total_steps / trials,
        expansion=Fraction(n_simp, n_orig),
        t_rank=t_rank / trials,
        t_int_enc=t_walk / total_steps,
        t_unrank=t_unrank / trials,
        t_enc=(t_rank + t_walk + t_unrank) / trials,
        walk_histogram=hist,
    )


# ---------------------------------------------------------------------------
# worked formats for measurements


def transaction_format() -> Concat:
    """date, nine-digit id, card number, comma-space separated."""
    sep = DelimStringSet((", ",), prefix_free=True)
    return Concat(
        (
            Date(datetime(1900, 1, 1), datetime(2013, 9, 23), "day"),
            sep,
            Ssn(),
            sep,
            Ccn(),
        )
    )


def transaction_simplified() -> FixedString:
    """The per-position class pattern shared by every transaction string."""
    d = DIGITS
    charsets = (
        ["0123", d, ".", "01", d, ".", "12", d, d, d]
        + [",", " "]
        + [d] * 9
        + [",", " "]
        + [d] * 16
    )
    return FixedString(tuple(charsets))


def records_format() -> Concat:
    """name,town records: capitalized words, 1-3 word names, 1-2 word towns."""
    word = Concat((FixedString((_UPPER,)), VarString(1, 7, _LOWER)))
    name = Range(word, " ", 1, 3, last_delimited=False)
    town = Range(word, " ", 1, 2, last_delimited=False)
    return Concat((name, town), (",",))


def synthetic_records(n: int, seed: int = 0) -> list:
    """Random members of records_format with diverse word counts/lengths."""
    rng = random.Random(seed)

    def word():
        return rng.choice(_UPPER) + "".join(
            rng.choice(_LOWER) for _ in range(rng.randint(1, 7))
        )

    out = []
    for _ in range(n):
        name = " ".join(word() for _ in range(rng.randint(1, 3)))
        town = " ".join(word() for _ in range(rng.randint(1, 2)))
        out.append(f"{name},{town}")
    return out
