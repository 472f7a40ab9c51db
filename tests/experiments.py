"""The paper's experiments: the sparse-set advantage simulation, the
attribute class count, and the worked transaction and records data.

The signature baseline (SGFPE) is the shipped cipher applied to the
fixed-length format a message's character-class signature describes, so
these helpers encrypt through `fpekit.encrypt` like any caller.
"""

import math
import random
from dataclasses import dataclass
from datetime import datetime

from fpekit import (
    Ccn,
    CipherConfig,
    Concat,
    Date,
    DelimStringSet,
    FixedString,
    IntFpeKey,
    Ssn,
    encrypt,
)
from fpekit.analysis import sgfpe_signature
from fpekit.errors import BadParameter

DIGITS = "0123456789"
UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
LOWER = "abcdefghijklmnopqrstuvwxyz"


def signature_format(sig) -> FixedString:
    """The fixed-length format a signature describes."""
    charsets = []
    for t in sig:
        if t == "U":
            charsets.append(UPPER)
        elif t == "l":
            charsets.append(LOWER)
        elif t == "d":
            charsets.append(DIGITS)
        else:
            charsets.append(t)
    return FixedString(tuple(charsets))


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
        "".join(rng.choice(LOWER) for _ in range(length))
        for length in range(1, k + 1)
    ]
    by_len = {len(m): m for m in messages}
    # each message's signature format, built once for the run
    formats = {m: signature_format(sgfpe_signature(m)) for m in messages}
    cfg = CipherConfig()
    wins_attack = 0
    wins_uniform = 0
    for _ in range(trials):
        key = IntFpeKey(rng.randbytes(32))
        m = messages[rng.randrange(k)]
        c = encrypt(cfg, key, formats[m], m)
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
# worked formats and data for measurements


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


def synthetic_records(n: int, seed: int = 0) -> list:
    """Random members of analysis.records_format with diverse word
    counts/lengths."""
    rng = random.Random(seed)

    def word():
        return rng.choice(UPPER) + "".join(
            rng.choice(LOWER) for _ in range(rng.randint(1, 7))
        )

    out = []
    for _ in range(n):
        name = " ".join(word() for _ in range(rng.randint(1, 3)))
        town = " ".join(word() for _ in range(rng.randint(1, 2)))
        out.append(f"{name},{town}")
    return out
