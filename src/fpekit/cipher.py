"""Format-preserving encryption of strings.

Encrypt walks the message's slot plan once (`splitting.walk`). Where the
walk meets a slot, it ranks the piece, enciphers the rank with the integer
backend under the slot's tweak, and spells the new rank in its place. The
walk keeps every value-dependent choice of the message (union branch,
length band, rank window) and its literal delimiters, so the ciphertext is
`unrank(pi(ranks), path(message))` and the input is walked only once.
Decrypt is the mirror image on the ciphertext, whose path is the message's.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from itertools import count

from . import dsl
from .errors import BadParameter, EntropyUnavailable, VectorShapeMismatch, outside
from .intfpe import (Fe1Backend, IntFpeKey, check_bound, check_rounds, check_walk_budget,
                     slot_permutation, slot_tweak, with_rounds)
from .splitting import build_plan, walk

__all__ = ["CipherConfig", "keygen", "format_fingerprint", "encrypt", "decrypt"]


@dataclass(frozen=True)
class CipherConfig:
    """Slot bound, round count, and walk budget."""

    max_size: int | None = None
    rounds: int = 12
    walk_budget: int = 10**6

    def __post_init__(self):
        check_bound(self.max_size)
        check_rounds(self.rounds)
        check_walk_budget(self.walk_budget)


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
    """32 bytes binding the canonical format text and the slot bound,
    computed once per format and bound and stored on the format node."""
    bound = repr(max_size)
    fp = spec.fingerprints.get(bound)
    if fp is None:
        h = hashlib.sha256()
        h.update(dsl.serialize_spec(spec).encode("utf-8"))
        h.update(b"\x00")
        h.update(bound.encode("ascii"))
        fp = spec.fingerprints[bound] = h.digest()
    return fp


def _as_bytes(tweak) -> bytes:
    """A text tweak's UTF-8 bytes, or a bytes-like tweak's bytes; anything
    else, which bytes() would also read (an int as that many zero bytes), is
    a BadParameter naming its type."""
    if isinstance(tweak, str):
        return tweak.encode("utf-8")
    if isinstance(tweak, (bytes, bytearray, memoryview)):
        return bytes(tweak)
    raise BadParameter(f"tweak must be text or bytes, not {type(tweak).__name__}")


def _crypt(cfg: CipherConfig, key: IntFpeKey, spec, text: str, tweak, backend,
           decrypting: bool) -> str:
    """Walk text once, mapping each slot through the backend (an Fe1Backend
    by its key's slot_permutation) where the walk meets it."""
    plan = build_plan(spec, cfg.max_size)
    k = with_rounds(key, cfg.rounds)
    fp = format_fingerprint(spec, cfg.max_size)
    extra = _as_bytes(tweak)
    if backend is None:  # the config has checked its walk budget
        perm = slot_permutation(k, fp, extra, decrypting, cfg.walk_budget, None)
    elif isinstance(backend, Fe1Backend):
        perm = slot_permutation(k, fp, extra, decrypting, backend.walk_budget, backend.recorder)
    else:
        slot_fn, index = backend.decrypt if decrypting else backend.encrypt, count()

        def perm(r, n):  # the backend may answer anything: check it before the slot is spelled
            i = next(index)
            y = slot_fn(k, slot_tweak(fp, i, extra), n, r)
            if not 0 <= y < n:
                raise VectorShapeMismatch(f"slot {i}: {outside(y, n)}")
            return y
    return walk(plan, text, perm, None)


def encrypt(cfg: CipherConfig, key: IntFpeKey, spec, message: str, tweak=b"", backend=None) -> str:
    """Map a member to a member, deterministically under (key, tweak)."""
    return _crypt(cfg, key, spec, message, tweak, backend, decrypting=False)


def decrypt(cfg: CipherConfig, key: IntFpeKey, spec, ciphertext: str, tweak=b"", backend=None) -> str:
    return _crypt(cfg, key, spec, ciphertext, tweak, backend, decrypting=True)
