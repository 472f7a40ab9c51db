"""Format-preserving encryption of strings.

Encrypt ranks the message into bounded slots, enciphers every slot rank
with the integer backend, and unranks the new vector back into the format,
using the message itself as the example that pins all value-dependent
choices. Decrypt is the mirror image with the ciphertext as the example,
so both directions walk the same slot structure.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace

from .dsl import serialize_spec
from .errors import BadParameter, EntropyUnavailable
from .formats import ensure_valid
from .intfpe import Fe1Backend, IntFpeKey
from .splitting import RankVector, rank_multi, unrank_multi

__all__ = ["CipherConfig", "keygen", "format_fingerprint", "encrypt", "decrypt"]


@dataclass(frozen=True)
class CipherConfig:
    """Slot bound, round count, and walk budget."""

    max_size: int | None = None
    rounds: int = 12
    walk_budget: int = 10**6

    def __post_init__(self):
        if self.max_size is not None and self.max_size < 2:
            raise BadParameter("max_size must be at least 2, or None for unbounded")
        if self.rounds < 3:
            raise BadParameter("need at least 3 rounds")


def keygen(bits: int = 256) -> IntFpeKey:
    """Fresh random key. 128-bit strength is expanded to the 32-byte format."""
    if bits not in (128, 256):
        raise BadParameter(f"bits must be 128 or 256, got {bits}")
    try:
        raw = os.urandom(bits // 8)
    except (OSError, NotImplementedError) as e:
        raise EntropyUnavailable(str(e)) from None
    if bits == 128:
        return IntFpeKey(hashlib.shake_256(raw).digest(32))
    return IntFpeKey(raw)


def format_fingerprint(spec, max_size) -> bytes:
    """32 bytes binding the canonical format text and the slot bound."""
    h = hashlib.sha256()
    h.update(serialize_spec(spec).encode("utf-8"))
    h.update(b"\x00")
    h.update(repr(max_size).encode("ascii"))
    return h.digest()


def _slot_tweak(fingerprint: bytes, index: int, tweak: bytes) -> bytes:
    return fingerprint + index.to_bytes(4, "big") + tweak


def _as_bytes(tweak) -> bytes:
    return tweak.encode("utf-8") if isinstance(tweak, str) else bytes(tweak)


def encrypt(cfg: CipherConfig, key: IntFpeKey, spec, message: str, tweak=b"", backend=None) -> str:
    """Map a member to a member, deterministically under (key, tweak)."""
    ensure_valid(spec)
    if backend is None:
        backend = Fe1Backend(walk_budget=cfg.walk_budget)
    k = key if key.rounds == cfg.rounds else replace(key, rounds=cfg.rounds)
    fp = format_fingerprint(spec, cfg.max_size)
    extra = _as_bytes(tweak)
    vector = rank_multi(spec, cfg.max_size, message)
    new_ranks = tuple(
        backend.encrypt(k, _slot_tweak(fp, i, extra), n, r)
        for i, (r, n) in enumerate(zip(vector.ranks, vector.sizes))
    )
    return unrank_multi(spec, cfg.max_size, RankVector(new_ranks, vector.sizes), message)


def decrypt(cfg: CipherConfig, key: IntFpeKey, spec, ciphertext: str, tweak=b"", backend=None) -> str:
    ensure_valid(spec)
    if backend is None:
        backend = Fe1Backend(walk_budget=cfg.walk_budget)
    k = key if key.rounds == cfg.rounds else replace(key, rounds=cfg.rounds)
    fp = format_fingerprint(spec, cfg.max_size)
    extra = _as_bytes(tweak)
    vector = rank_multi(spec, cfg.max_size, ciphertext)
    new_ranks = tuple(
        backend.decrypt(k, _slot_tweak(fp, i, extra), n, r)
        for i, (r, n) in enumerate(zip(vector.ranks, vector.sizes))
    )
    return unrank_multi(spec, cfg.max_size, RankVector(new_ranks, vector.sizes), ciphertext)
