"""Keyed permutations of integer ranges [0, N).

Up to SHUFFLE_LIMIT values, a keyed Fisher-Yates shuffle permutes [0, N)
directly. Above it, a near-square Feistel network over [0, a*b), a = isqrt(N),
is cycle-walked into [0, N). Every SHAKE-256 call binds the key, the tweak, N,
the round count and a round number (0 for the shuffle); a Feistel round adds
the other half and reduces an output 8 bytes longer than its modulus needs.

An IntFpeKey builds each permutation once per (tweak, N), the Feistel pass
(split, half constants, keyed state) or the shuffle table and its inverse, and
keeps at most 256 (_KEY_CACHE_ENTRIES), emptied when it would hold more. The
store dies with the key, and every output is the same as when built afresh.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field
from math import isqrt

from .errors import (
    BadParameter,
    InputOutOfDomain,
    WalkBudgetExceeded,
    outside,
)

__all__ = [
    "IntFpeKey",
    "balanced_factor",
    "feistel_encrypt",
    "feistel_decrypt",
    "cycle_walk_encrypt",
    "cycle_walk_decrypt",
    "WalkRecorder",
    "Fe1Backend",
    "read_key_file",
    "write_key_file",
]

def check_rounds(rounds: int) -> None:
    if not 3 <= rounds < 2**16:  # every XOF call binds it in 2 bytes
        raise BadParameter("need from 3 to 65535 rounds")


@dataclass(frozen=True)
class IntFpeKey:
    """A 32-byte secret plus the Feistel round count, and the permutations
    built under it so far (not compared, hashed or printed)."""

    secret: bytes = field(repr=False)
    rounds: int = 12
    _permutations: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.secret, bytes) or len(self.secret) != 32:
            raise BadParameter("secret must be exactly 32 bytes")
        check_rounds(self.rounds)


def write_key_file(path, key: IntFpeKey, overwrite: bool = False) -> None:
    """Store the secret as one hex line in a file only its owner can read.
    An existing file raises FileExistsError unless overwrite is set."""
    flags = os.O_WRONLY | os.O_CREAT | (os.O_TRUNC if overwrite else os.O_EXCL)
    with open(os.open(path, flags, 0o600), "w", encoding="ascii") as fh:
        os.fchmod(fh.fileno(), 0o600)
        fh.write(key.secret.hex() + "\n")


def read_key_file(path) -> IntFpeKey:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read().strip()
    try:
        secret = bytes.fromhex(text)
    except ValueError:
        raise BadParameter(f"{path}: not a hex key file") from None
    if len(secret) != 32:
        raise BadParameter(f"{path}: expected 32 key bytes, got {len(secret)}")
    return IntFpeKey(secret)


# ---------------------------------------------------------------------------
# factoring the working range


def balanced_factor(n: int):
    """(a, b, n') with a*b = n' >= n, 2 <= a <= b <= a + 3: a = isqrt(n) and
    b = ceil(n / a), floored at 2, so the range grows by less than a."""
    if n < 2:
        raise BadParameter(f"domain must have at least two values, got {n}")
    a = max(2, isqrt(n))
    b = max(2, -(-n // a))
    return a, b, a * b


# ---------------------------------------------------------------------------
# the Feistel permutation on [0, n')


def _base_state(key: IntFpeKey, tweak: bytes, n: int):
    # SHAKE-256 over the secret, tweak, domain size and round count, before each
    # call's 2-byte round number; a cache would keep secret keys in module state
    size = n.to_bytes((n.bit_length() + 7) // 8, "big")
    h = hashlib.shake_256(key.secret + len(tweak).to_bytes(4, "big") + tweak)
    h.update(len(size).to_bytes(4, "big") + size + key.rounds.to_bytes(2, "big"))
    return h


def _half(modulus: int, other: int) -> tuple:
    # a round that adds to the half below `modulus`, reading the half below
    # `other`: the modulus, the digest length (8 bytes over the modulus's,
    # so reducing it is biased by under 2**-64), and the value's width in bits
    nbytes = ((modulus - 1).bit_length() + 7) // 8 + 8
    width = ((other - 1).bit_length() + 7) // 8 * 8
    return modulus, nbytes, width


class _FeistelPass:
    """The permutation over [0, n') for one key, tweak and domain size, with
    its constants built once: the split a x b = n', each half's modulus,
    digest length and message width, and the keyed SHAKE state."""

    def __init__(self, key: IntFpeKey, tweak: bytes, n: int):
        self.a, self.b, self.n2 = balanced_factor(n)
        self.base = _base_state(key, tweak, n)
        self.rounds = key.rounds
        self.halves = (_half(self.b, self.a), _half(self.a, self.b))  # by round parity

    def apply(self, x: int, sign: int) -> int:
        """The permutation (sign 1) or its inverse (sign -1) at x < n'.

        Round i adds, to one half, one SHAKE output over the keyed state, i
        (2 bytes) and the other half (fixed width), reduced mod the half's
        modulus.
        """
        a, b, base, halves = self.a, self.b, self.base, self.halves
        q, r = divmod(x, a)
        for i in range(1, self.rounds + 1) if sign > 0 else range(self.rounds, 0, -1):
            modulus, nbytes, width = halves[i % 2]
            h = base.copy()
            h.update(((i << width) | (q if i % 2 else r)).to_bytes(2 + width // 8, "big"))
            f = int.from_bytes(h.digest(nbytes), "big") % modulus
            if i % 2:
                r = (r + sign * f) % a
            else:
                q = (q + sign * f) % b
        return a * q + r


# The most permutations a key keeps; 2^16-bounded address records use 49.
_KEY_CACHE_ENTRIES = 256


def _keyed(key: IntFpeKey, build, tweak: bytes, n: int):
    """build(key, tweak, n), built once per key. A cache that grows past the
    bound is emptied, one dict call, so threads sharing a key need no lock."""
    cache = key._permutations
    p = cache.get((build, tweak, n))
    if p is None:
        p = cache[build, tweak, n] = build(key, tweak, n)
        if len(cache) > _KEY_CACHE_ENTRIES:
            cache.clear()
    return p


def _one_pass(key: IntFpeKey, tweak: bytes, n: int, x: int, sign: int) -> int:
    fp = _keyed(key, _FeistelPass, tweak, n)
    if not 0 <= x < fp.n2:
        raise InputOutOfDomain(outside(x, fp.n2))
    return fp.apply(x, sign)


def feistel_encrypt(key: IntFpeKey, tweak: bytes, n: int, x: int) -> int:
    """One pass of the permutation over [0, n') where n' >= n."""
    return _one_pass(key, tweak, n, x, 1)


def feistel_decrypt(key: IntFpeKey, tweak: bytes, n: int, x: int) -> int:
    return _one_pass(key, tweak, n, x, -1)


# ---------------------------------------------------------------------------
# the keyed shuffle on [0, n) for tiny n

# Domains up to this size are shuffled, not walked. CPython 3.11 on a 2-vCPU
# x86-64 Xeon VM, per value enciphered: a shuffle costs about 2 us plus 0.15 us
# per domain value, a 12-round Feistel walk about 20 us, so they meet near 120-140.
SHUFFLE_LIMIT = 128


def _shuffle(key: IntFpeKey, tweak: bytes, n: int) -> tuple:
    """The keyed permutation of [0, n) and its inverse, as two lists: a
    Fisher-Yates shuffle whose n - 1 draws of 8 bytes come from one SHAKE
    output over the keyed state and round number 0, which no Feistel round uses."""
    h = _base_state(key, tweak, n)
    h.update(bytes(2))
    perm = list(range(n))
    for i, d in zip(range(n - 1, 0, -1), struct.unpack(f">{n - 1}Q", h.digest(8 * (n - 1)))):
        j = d % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm, sorted(range(n), key=perm.__getitem__)


# ---------------------------------------------------------------------------
# cycle walking down to [0, m)


class WalkRecorder:
    """Collects (domain size, walk length) pairs for instrumentation."""

    def __init__(self):
        self.events = []

    def record(self, domain: int, steps: int) -> None:
        self.events.append((domain, steps))

    def steps_histogram(self) -> dict:
        out: dict[int, int] = {}
        for _, steps in self.events:
            out[steps] = out.get(steps, 0) + 1
        return out


def _cycle_walk(key, tweak: bytes, m_size: int, x: int, walk_budget: int, recorder,
                sign: int) -> int:
    """Iterate the key's Feistel pass (sign 1) or its inverse (sign -1) until
    it lands inside [0, m_size); a domain up to SHUFFLE_LIMIT is shuffled
    instead, which counts as one step."""
    if m_size < 1:
        raise BadParameter(f"empty domain {m_size}")
    if not 0 <= x < m_size:
        raise InputOutOfDomain(outside(x, m_size))
    y, steps = x, 0
    if 1 < m_size <= SHUFFLE_LIMIT:
        perm, inverse = _keyed(key, _shuffle, tweak, m_size)
        y, steps = (perm if sign > 0 else inverse)[x], 1
    elif m_size > 1:
        fp = _keyed(key, _FeistelPass, tweak, m_size)
        while True:
            y = fp.apply(y, sign)
            steps += 1
            if y < m_size:
                break
            if steps >= walk_budget:
                raise WalkBudgetExceeded(f"no landing in [0, {m_size}) "
                                         f"within {walk_budget} applications")
    if recorder is not None:
        recorder.record(m_size, steps)
    return y


def cycle_walk_encrypt(
    key, tweak: bytes, m_size: int, x: int, walk_budget: int = 10**6, recorder=None
) -> int:
    """Permute [0, m_size): shuffle it, or walk the Feistel pass back into it."""
    return _cycle_walk(key, tweak, m_size, x, walk_budget, recorder, 1)


def cycle_walk_decrypt(
    key, tweak: bytes, m_size: int, x: int, walk_budget: int = 10**6, recorder=None
) -> int:
    return _cycle_walk(key, tweak, m_size, x, walk_budget, recorder, -1)


# ---------------------------------------------------------------------------
# the integer backend


class Fe1Backend:
    """Feistel-then-walk (or shuffle) enciphering of integer ranges."""

    def __init__(self, walk_budget: int = 10**6, recorder=None):
        self.walk_budget = walk_budget
        self.recorder = recorder

    def encrypt(self, key, tweak: bytes, domain: int, x: int) -> int:
        return cycle_walk_encrypt(key, tweak, domain, x, self.walk_budget, self.recorder)

    def decrypt(self, key, tweak: bytes, domain: int, x: int) -> int:
        return cycle_walk_decrypt(key, tweak, domain, x, self.walk_budget, self.recorder)
