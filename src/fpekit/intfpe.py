"""Keyed permutations of integer ranges [0, N).

A balanced Feistel network runs over [0, N') where N' >= N is the nearest
integer with a usable two-factor decomposition; cycle walking re-applies
the permutation until the output lands inside [0, N). Round outputs come
from SHAKE-256 over the key, the tweak, the round number, and the opposite
half, with rejection sampling to keep them uniform.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .errors import (
    BadParameter,
    InputOutOfDomain,
    WalkBudgetExceeded,
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

# above this, trial division to the square root stops being a desk-scale cost
_EXACT_FACTOR_LIMIT = 2**32


@dataclass(frozen=True)
class IntFpeKey:
    """A 32-byte secret plus the Feistel round count."""

    secret: bytes
    rounds: int = 12

    def __post_init__(self):
        if not isinstance(self.secret, bytes) or len(self.secret) != 32:
            raise BadParameter("secret must be exactly 32 bytes")
        if self.rounds < 3:
            raise BadParameter("need at least 3 rounds")


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


def _largest_small_divisor(m: int):
    for d in range(isqrt(m), 1, -1):
        if m % d == 0:
            return d
    return None


@lru_cache(maxsize=None)
def balanced_factor(n: int):
    """(a, b, n') with a*b = n' >= n, 1 < a <= b, and b/a as small as possible.

    Below 2**32 the decomposition is exact: the first n' at or above n that
    has a nontrivial divisor pair. Above it, trial division is replaced by
    a = isqrt(n), b = ceil(n / a), which stays near-square and expands the
    range by less than one part in a.
    """
    if n < 2:
        raise BadParameter(f"domain must have at least two values, got {n}")
    if n > _EXACT_FACTOR_LIMIT:
        a = isqrt(n)
        b = -(-n // a)
        return a, b, a * b
    m = max(n, 4)
    while True:
        a = _largest_small_divisor(m)
        if a is not None:
            return a, m // a, m
        m += 1


# ---------------------------------------------------------------------------
# the Feistel permutation on [0, n')


def _base_state(secret: bytes, tweak: bytes):
    # built per cycle walk: a cache here would keep secret keys in module state
    h = hashlib.shake_256()
    h.update(secret)
    h.update(len(tweak).to_bytes(4, "big"))
    h.update(tweak)
    return h


def _half(modulus: int) -> tuple:
    # a Feistel half's modulus, round-output digest length, and excess bits
    bits = (modulus - 1).bit_length()
    nbytes = (bits + 7) // 8
    return modulus, nbytes, nbytes * 8 - bits


class _FeistelPass:
    """The permutation over [0, n') for one key, tweak and domain size, with
    its constants built once: the split a x b = n', each half's digest
    length and shift, and the keyed SHAKE state."""

    def __init__(self, key: IntFpeKey, tweak: bytes, n: int):
        self.a, self.b, self.n2 = balanced_factor(n)
        self.base = _base_state(key.secret, tweak)
        self.rounds = key.rounds
        self.halves = (_half(self.b), _half(self.a))  # by round parity

    def apply(self, x: int, sign: int) -> int:
        """The permutation (sign 1) or its inverse (sign -1) at x < n'.

        Round i adds, to one half, SHAKE over the keyed state, i (2 bytes),
        a counter (4 bytes) and the other half (minimal big-endian),
        rejection-sampled below the half's modulus.
        """
        a, b, base, halves = self.a, self.b, self.base, self.halves
        q, r = divmod(x, a)
        for i in range(1, self.rounds + 1) if sign > 0 else range(self.rounds, 0, -1):
            value = q if i % 2 else r
            modulus, nbytes, shift = halves[i % 2]
            k = (value.bit_length() + 7) // 8 or 1
            msg = (i << 32) << (8 * k) | value
            while True:
                h = base.copy()
                h.update(msg.to_bytes(6 + k, "big"))
                f = int.from_bytes(h.digest(nbytes), "big") >> shift
                if f < modulus:
                    break
                msg += 1 << (8 * k)  # the next counter
            if i % 2:
                r = (r + sign * f) % a
            else:
                q = (q + sign * f) % b
        return a * q + r


def _one_pass(key: IntFpeKey, tweak: bytes, n: int, x: int, sign: int) -> int:
    fp = _FeistelPass(key, tweak, n)
    if not 0 <= x < fp.n2:
        raise InputOutOfDomain(f"{x} not in [0, {fp.n2})")
    return fp.apply(x, sign)


def feistel_encrypt(key: IntFpeKey, tweak: bytes, n: int, x: int) -> int:
    """One pass of the permutation over [0, n') where n' >= n."""
    return _one_pass(key, tweak, n, x, 1)


def feistel_decrypt(key: IntFpeKey, tweak: bytes, n: int, x: int) -> int:
    return _one_pass(key, tweak, n, x, -1)


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
    """Iterate the Feistel pass (sign 1) or its inverse (sign -1), built once
    for the walk, until it lands inside [0, m_size)."""
    if m_size < 1:
        raise BadParameter(f"empty domain {m_size}")
    if not 0 <= x < m_size:
        raise InputOutOfDomain(f"{x} not in [0, {m_size})")
    y = x
    steps = 0
    if m_size > 1:
        fp = _FeistelPass(key, tweak, m_size)
        while True:
            y = fp.apply(y, sign)
            steps += 1
            if y < m_size:
                break
            if steps >= walk_budget:
                raise WalkBudgetExceeded(
                    f"no landing in [0, {m_size}) within {walk_budget} applications"
                )
    if recorder is not None:
        recorder.record(m_size, steps)
    return y


def cycle_walk_encrypt(
    key, tweak: bytes, m_size: int, x: int, walk_budget: int = 10**6, recorder=None
) -> int:
    """Permute [0, m_size) by iterating the Feistel pass until it lands inside."""
    return _cycle_walk(key, tweak, m_size, x, walk_budget, recorder, 1)


def cycle_walk_decrypt(
    key, tweak: bytes, m_size: int, x: int, walk_budget: int = 10**6, recorder=None
) -> int:
    return _cycle_walk(key, tweak, m_size, x, walk_budget, recorder, -1)


# ---------------------------------------------------------------------------
# the integer backend


class Fe1Backend:
    """Feistel-then-walk enciphering of integer ranges."""

    name = "fe1"

    def __init__(self, walk_budget: int = 10**6, recorder=None):
        self.walk_budget = walk_budget
        self.recorder = recorder

    def encrypt(self, key, tweak: bytes, domain: int, x: int) -> int:
        return cycle_walk_encrypt(key, tweak, domain, x, self.walk_budget, self.recorder)

    def decrypt(self, key, tweak: bytes, domain: int, x: int) -> int:
        return cycle_walk_decrypt(key, tweak, domain, x, self.walk_budget, self.recorder)
