"""Keyed permutations of integer ranges [0, N).

The public permutation is the cycle walk (cycle_walk_* and Fe1Backend),
whose every call checks its arguments; `cipher` reaches the same
permutations through slot_permutation, which checks the key once a record.

Up to SHUFFLE_LIMIT values, a keyed Fisher-Yates shuffle permutes [0, N)
directly. Above it, a near-square Feistel network over [0, a*b), a = isqrt(N),
is cycle-walked into [0, N). Every SHAKE-256 call binds the key, the tweak, N,
the round count and a round number (0 for the shuffle); a Feistel round adds
the other half and reduces an output 8 bytes longer than its modulus needs.
A pass absorbs everything but the half once, when it is built, into one
keyed state per round, so a round copies its state and absorbs only the
half. Where the keyed prefix nearly fills SHAKE-256's 136-byte block (135
bytes on a 454-bit slot), the round number completes the block in that
state once, not once per round.

An IntFpeKey builds each permutation once, kept under the key its caller
names: a slot's (fingerprint, tweak, index, size), or a public call's
(build, tweak, N). Every entry's `apply` is its forward and inverse: a
shuffle's two lists' __getitem__, or a Feistel pass's two functions. Before
a record's first slot, a store of 256 or more (_KEY_CACHE_ENTRIES) drops
every entry of other records; a public call is a record of its own, and no
entry is stored past 1,024 (_KEY_CACHE_MOST). The store dies with the key,
every output is the same as when built afresh, and no module cache holds
anything per split or round count.

A Feistel pass whose round function has at most TABLE_LIMIT distinct outputs
tabulates it, one row per round, on the apply whose count matches the table's
cost: the table takes E = ceil(r/2)*b + floor(r/2)*a XOF calls for r rounds,
as many as E // r applies, so a pass used that often has paid for it. The
point depends on the apply count only, never on the inputs, so an apply's
time does not show which halves were seen before. That apply, in either
function, builds the table, swaps `apply` for two functions that read it in
(odd, even) round pairs, and drops the round states. A pass used fewer
times costs one counter decrement per apply, one used exactly that often at
most about twice its XOF calls. A row is bytes where its modulus is at most
256, else 16-bit values, so a key's 256 passes hold at most 2.6 MB of tables
(1.5 MB under a 2^16 bound), the 1,024 of one long record four times that,
and tables change no output.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import weakref
from array import array
from dataclasses import dataclass, field
from itertools import count
from math import isqrt

from .errors import (
    BadParameter,
    InputOutOfDomain,
    WalkBudgetExceeded,
    outside,
)

__all__ = [
    "IntFpeKey",
    "cycle_walk_encrypt",
    "cycle_walk_decrypt",
    "slot_permutation",
    "WalkRecorder",
    "Fe1Backend",
    "read_key_file",
    "write_key_file",
]

WALK_BUDGET = 10**6  # the default most applications of a cycle walk
# the least slot bound too large: a fingerprint binds repr(max_size), at most 4,300 digits
BOUND_LIMIT = 10**4300


def check_walk_budget(walk_budget: int) -> None:
    if type(walk_budget) is not int or walk_budget < 1:
        raise BadParameter("walk_budget must be an integer of at least 1")


def check_bound(max_size) -> None:
    """A slot bound is None (unbounded) or an integer from 2 to below
    BOUND_LIMIT: the format fingerprint binds its repr, so 65536.0 would
    split as 65536 does and yet encipher otherwise."""
    if max_size is not None and (type(max_size) is not int or not 2 <= max_size < BOUND_LIMIT):
        raise BadParameter("max_size must be None (unbounded) or an integer in [2, 10**4300)")


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
        if type(self.rounds) is not int or not 3 <= self.rounds < 2**16:  # 2 bytes in every XOF
            raise BadParameter("need an integer from 3 to 65535 rounds")


def write_key_file(path, key: IntFpeKey, overwrite: bool = False) -> None:
    """Store the secret as one hex line in a new file only its owner can read.
    An existing file raises FileExistsError unless overwrite is set; then a
    new file beside it replaces the path, so a symlink there is not followed."""
    if overwrite:
        fd, new = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    else:
        fd, new = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600), path
    try:
        with open(fd, "w", encoding="ascii") as fh:
            os.fchmod(fh.fileno(), 0o600)
            fh.write(key.secret.hex() + "\n")
        os.replace(new, path)
    except BaseException:
        os.unlink(new)
        raise


def read_key_file(path) -> IntFpeKey:
    try:
        with open(path, encoding="ascii") as fh:
            secret = bytes.fromhex(fh.read().strip())
    except ValueError:  # a UnicodeDecodeError too, whose text shows a key byte
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


# A pass tabulates its round function when the table has at most this many
# entries: every slot of a 2^16 bound at 12 rounds (at most 3,072). Every
# half is then below it, so a row of 16-bit values holds any round output;
# a row whose modulus is at most 256 (every odd row under a 2^16 bound) is bytes.
TABLE_LIMIT = 4096


class _FeistelPass:
    """The permutation over [0, n') for one key, tweak and domain size, as
    `apply`: its forward and inverse functions, each one application to a
    value below n', built once with the split a x b = n', each round's
    constants and that round's keyed SHAKE state (_base_state with the
    round's number absorbed), so a round copies one state and absorbs only
    the other half.

    Both count applies; the one that brings the count to 0 builds the table
    (_tabulate), which takes the round states (`steps`) from the pass and
    swaps `apply` for two functions that read it. Threads need no lock:
    the swap is one attribute assignment, a lost decrement only delays the
    build, and a build that finds `steps` taken leaves it to the first."""

    def __init__(self, key: IntFpeKey, tweak: bytes, n: int):
        a, b, self.n2 = balanced_factor(n)
        self.a, self.b = a, b
        self.rounds = rounds = key.rounds
        self.table = None
        base, self.steps = _base_state(key, tweak, n), []
        # for odd rounds, then even ones: the modulus of the half a round adds to
        # (odd rounds r mod a, even q mod b), the byte width of the half it reads,
        # and a digest 8 bytes over the modulus's, so reducing it is biased by < 2**-64
        wa, wb = ((a - 1).bit_length() + 7) // 8, ((b - 1).bit_length() + 7) // 8
        halves = (a, wb, wa + 8), (b, wa, wb + 8)
        for i in range(1, rounds + 1):
            h = base.copy()
            h.update(i.to_bytes(2, "big"))
            self.steps.append((h, *halves[1 - i % 2]))
        entries = (rounds + 1) // 2 * b + rounds // 2 * a
        # the build costs `entries` XOF calls, as many as this many applies
        self.apply = self._hashed(self.steps, entries // rounds if entries <= TABLE_LIMIT else 0)

    def _hashed(self, steps: list, left: int) -> tuple:
        """(forward, inverse) through the XOF, counting down from `left` > 0 to
        the table's build. Round i adds, to one half, one SHAKE output over
        round i's state and the other half (fixed width), mod the half's
        modulus; (u, v) are the half it adds to and the half it reads."""
        a, odd, back = self.a, self.rounds % 2, steps[::-1]

        def forward(x):
            v, u = divmod(x, a)
            for state, m, width, nbytes in steps:
                h = state.copy()
                h.update(v.to_bytes(width, "big"))
                u, v = v, (u + int.from_bytes(h.digest(nbytes), "big")) % m
            return a * u + v if odd else a * v + u

        def inverse(x):
            u, v = divmod(x, a) if odd else divmod(x, a)[::-1]  # as forward leaves them
            for state, m, width, nbytes in back:
                h = state.copy()
                h.update(u.to_bytes(width, "big"))
                u, v = (v - int.from_bytes(h.digest(nbytes), "big")) % m, u
            return a * v + u

        # the pass holds these functions, so they hold it weakly: no cycle
        this = weakref.ref(self)

        def counted(f, d):
            def apply(x):
                nonlocal left
                left = now = left - 1
                return f(x) if now else this()._tabulate()[d](x)
            return apply

        return (counted(forward, 0), counted(inverse, 1)) if left else (forward, inverse)

    def _tabulate(self) -> tuple:
        """Every round's XOF output for every value of the other half, reduced
        (the sum mod the modulus is the same), one row per round (bytes or
        16-bit values, as TABLE_LIMIT says), kept in `table`. Swaps in, and
        returns, two functions that read the rows in (odd, even) round pairs.
        The round states are freed with the XOF functions."""
        steps, self.steps = self.steps, None
        if steps is None:  # another thread's build is under way
            return self.apply
        a, b, rows, messages = self.a, self.b, [], {}
        for start, m, width, nbytes in steps:
            other = self.n2 // m
            if other not in messages:
                messages[other] = [v.to_bytes(width, "big") for v in range(other)]
            row = []
            for message in messages[other]:
                h = start.copy()
                h.update(message)
                row.append(int.from_bytes(h.digest(nbytes), "big") % m)
            rows.append(bytes(row) if m <= 256 else array("H", row))
        self.table = tuple(rows)
        # after an odd count of rounds, a last even row of zeros adds nothing
        evens = rows[1::2] + [bytes(a)] * (len(rows) % 2)
        pairs = tuple(zip(rows[::2], evens))
        back = pairs[::-1]

        def forward(x):
            q, r = divmod(x, a)
            for odd, even in pairs:
                r = (r + odd[q]) % a
                q = (q + even[r]) % b
            return a * q + r

        def inverse(x):
            q, r = divmod(x, a)
            for odd, even in back:
                q = (q - even[r]) % b
                r = (r - odd[q]) % a
            return a * q + r

        self.apply = forward, inverse
        return self.apply


# A record meeting a store this full drops the others' entries (210 address
# records at 2^16 use 52); no entry is stored past _KEY_CACHE_MOST.
_KEY_CACHE_ENTRIES = 256
_KEY_CACHE_MOST = 1024


def _keyed(key: IntFpeKey, build, tweak: bytes, n: int, k: tuple):
    """build(key, tweak, n), built once per key and kept under k while the
    store holds fewer than _KEY_CACHE_MOST."""
    store = key._permutations
    p = store.get(k)
    if p is None:
        p = build(key, tweak, n)
        if len(store) < _KEY_CACHE_MOST:
            store[k] = p
    return p


def _trim(store: dict, record: tuple) -> None:
    """Before a record's first slot, a store of _KEY_CACHE_ENTRIES or more keeps
    only the record's entries. Threads need no lock: the keys are snapshotted."""
    if len(store) >= _KEY_CACHE_ENTRIES:
        for k in tuple(store):
            if k[:2] != record:
                store.pop(k, None)


def _store(key) -> dict:
    """The key's permutations; a BadParameter for anything but an IntFpeKey."""
    if not isinstance(key, IntFpeKey):
        raise BadParameter(f"key must be an IntFpeKey, not {type(key).__name__}")
    return key._permutations


# ---------------------------------------------------------------------------
# the keyed shuffle on [0, n) for tiny n

# Domains up to this size are shuffled, not walked. The value is part of the
# ciphertext: changing it is a versioned break. Both built once per key, the
# shuffle is the cheaper here: at n = 128 its build takes about 28 us and a
# value 0.5 us, where at n = 129 a tabulated 12-round pass takes 1.9 us a
# value after a build of 21 us (CPython 3.11, 2-vCPU x86-64 Xeon VM).
SHUFFLE_LIMIT = 128


class _Shuffle:
    """The keyed permutation of [0, n) as `apply`, its table's and inverse
    table's __getitem__: a Fisher-Yates shuffle whose n - 1 draws of 8 bytes
    come from one SHAKE output over the keyed state and round number 0."""

    def __init__(self, key: IntFpeKey, tweak: bytes, n: int):
        h = _base_state(key, tweak, n)
        h.update(bytes(2))
        perm = list(range(n))
        for i, d in zip(range(n - 1, 0, -1), struct.unpack(f">{n - 1}Q", h.digest(8 * (n - 1)))):
            j = d % (i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        self.apply = perm.__getitem__, sorted(range(n), key=perm.__getitem__).__getitem__


# ---------------------------------------------------------------------------
# cycle walking down to [0, m)


class WalkRecorder:
    """Collects (domain size, walk length) pairs for instrumentation."""

    def __init__(self):
        self.events = []

    def record(self, domain: int, steps: int) -> None:
        self.events.append((domain, steps))


def _cycle_walk(key, tweak: bytes, m_size: int, x: int, walk_budget: int, recorder,
                decrypting: bool, k: tuple) -> int:
    """Walk the key's permutation of [0, m_size), kept under k, or its
    inverse, from x in [0, m_size) until it lands inside (a shuffle always
    does, in one step)."""
    y, steps = x, 0
    if m_size > 1:
        build = _Shuffle if m_size <= SHUFFLE_LIMIT else _FeistelPass
        f = _keyed(key, build, tweak, m_size, k).apply[decrypting]
        y, steps = f(x), 1
        while y >= m_size:
            if steps == walk_budget:
                raise WalkBudgetExceeded(
                    f"no landing in [0, {m_size}) within {walk_budget} applications")
            y, steps = f(y), steps + 1
    if recorder is not None:
        recorder.record(m_size, steps)
    return y


def _public_walk(key, tweak: bytes, m_size: int, x: int, walk_budget: int, recorder,
                 decrypting: bool) -> int:
    """The one public entry, behind cycle_walk_* and Fe1Backend: a wrong
    argument is a BadParameter naming its type (an InputOutOfDomain for x
    outside [0, m_size)), never its value. The call is a record of its own,
    whose entry is kept under (build, tweak, m_size)."""
    store = _store(key)
    if not isinstance(tweak, bytes):
        raise BadParameter(f"tweak must be bytes, not {type(tweak).__name__}")
    for name, value in (("domain size", m_size), ("x", x)):
        if type(value) is not int:
            raise BadParameter(f"{name} must be an int, not {type(value).__name__}")
    check_walk_budget(walk_budget)
    if m_size < 1:
        raise BadParameter(f"empty domain {m_size}")
    if not 0 <= x < m_size:
        raise InputOutOfDomain(outside(x, m_size))
    k = _Shuffle if m_size <= SHUFFLE_LIMIT else _FeistelPass, tweak, m_size
    _trim(store, k[:2])
    return _cycle_walk(key, tweak, m_size, x, walk_budget, recorder, decrypting, k)


def cycle_walk_encrypt(key, tweak: bytes, m_size: int, x: int, walk_budget: int = WALK_BUDGET,
                       recorder=None) -> int:
    """Permute [0, m_size): shuffle it, or walk the Feistel pass back into it."""
    return _public_walk(key, tweak, m_size, x, walk_budget, recorder, False)


def cycle_walk_decrypt(key, tweak: bytes, m_size: int, x: int, walk_budget: int = WALK_BUDGET,
                       recorder=None) -> int:
    return _public_walk(key, tweak, m_size, x, walk_budget, recorder, True)


def slot_tweak(fingerprint: bytes, index: int, tweak: bytes) -> bytes:
    return fingerprint + index.to_bytes(4, "big") + tweak


def slot_permutation(key, fingerprint: bytes, tweak: bytes, decrypting: bool,
                     walk_budget: int, recorder=None):
    """perm(x, n) for one record: what cycle_walk_encrypt (or decrypt) gives
    its next slot, of rank x and size n, under its slot_tweak, from the entry
    kept under (fingerprint, tweak, index, size) in a store trimmed for this
    record. A first use, a walk past one step, a slot of one value or a
    recorder takes the cycle walk."""
    store, d, index = _store(key), int(decrypting), count()
    _trim(store, (fingerprint, tweak))

    def perm(x, n):
        i = next(index)
        if not 0 <= x < n:
            raise InputOutOfDomain(f"slot {i}: {outside(x, n)}")
        k = fingerprint, tweak, i, n
        p = store.get(k) if recorder is None else None
        if p is not None:
            y = p.apply[d](x)
            if y < n:
                return y
        return _cycle_walk(key, slot_tweak(fingerprint, i, tweak), n, x, walk_budget, recorder,
                           decrypting, k)

    return perm


# ---------------------------------------------------------------------------
# the integer backend


class Fe1Backend:
    """The public cycle walk under one walk budget and recorder."""

    def __init__(self, walk_budget: int = WALK_BUDGET, recorder=None):
        check_walk_budget(walk_budget)
        self.walk_budget = walk_budget
        self.recorder = recorder

    def encrypt(self, key, tweak: bytes, domain: int, x: int) -> int:
        return _public_walk(key, tweak, domain, x, self.walk_budget, self.recorder, False)

    def decrypt(self, key, tweak: bytes, domain: int, x: int) -> int:
        return _public_walk(key, tweak, domain, x, self.walk_budget, self.recorder, True)
