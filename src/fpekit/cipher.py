"""Format-preserving encryption of strings.

Encrypt walks the message's slot plan once (`splitting.walk`). Where the
walk meets a slot, it ranks the piece, enciphers the rank with the key's
slot_permutation at the key's round count (a backend, if given, is an
Fe1Backend and sets only the walk budget and recorder), and spells the new
rank in its place. The walk keeps every value-dependent choice of the
message (union branch, length band, rank window) and its literal
delimiters, so the ciphertext is `unrank(pi(ranks), path(message))` and
the input is walked only once. Decrypt is the mirror image on the
ciphertext, whose path is the message's.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from . import dsl
from .errors import BadParameter, EntropyUnavailable
from .intfpe import (WALK_BUDGET, Fe1Backend, IntFpeKey, check_bound, check_walk_budget,
                     slot_permutation)
from .splitting import build_plan, walk

__all__ = ["CipherConfig", "keygen", "format_fingerprint", "encrypt", "decrypt"]


@dataclass(frozen=True)
class CipherConfig:
    """Slot bound and walk budget. The round count is the key's."""

    max_size: int | None = None
    walk_budget: int = WALK_BUDGET
    # not a field: perfbench/harness.py builds its keys with rounds=cfg.rounds
    rounds = IntFpeKey.rounds

    def __post_init__(self):
        check_bound(self.max_size)
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
    """Walk text once, mapping each slot through the key's slot_permutation."""
    plan = build_plan(spec, cfg.max_size)
    fp = format_fingerprint(spec, cfg.max_size)
    extra = _as_bytes(tweak)
    if backend is None:  # the config has checked its walk budget
        budget, recorder = cfg.walk_budget, None
    elif isinstance(backend, Fe1Backend):
        budget, recorder = backend.walk_budget, backend.recorder
    else:
        raise BadParameter(f"backend must be an Fe1Backend or None, not {type(backend).__name__}")
    return walk(plan, text, slot_permutation(key, fp, extra, decrypting, budget, recorder), None)


def encrypt(cfg: CipherConfig, key: IntFpeKey, spec, message: str, tweak=b"", backend=None) -> str:
    """Map a member to a member, deterministically under (key, tweak)."""
    return _crypt(cfg, key, spec, message, tweak, backend, decrypting=False)


def decrypt(cfg: CipherConfig, key: IntFpeKey, spec, ciphertext: str, tweak=b"", backend=None) -> str:
    return _crypt(cfg, key, spec, ciphertext, tweak, backend, decrypting=True)
