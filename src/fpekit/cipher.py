"""Format-preserving encryption of strings.

Encrypt ranks the message into bounded slots, enciphers every slot rank
with the integer backend, and fills the message's template with the new
ranks. One checked rank walk gives both the ranks and the template, which
keeps every value-dependent choice of the message (union branch, length
band, rank window) and its literal delimiters, so the ciphertext is
`unrank(pi(ranks), path(message))` and the input is walked only once.
Decrypt is the mirror image on the ciphertext, whose path is the message's.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from . import dsl
from .errors import BadParameter, EntropyUnavailable
from .intfpe import (Fe1Backend, IntFpeKey, check_rounds, check_walk_budget, crypt_slots,
                     slot_tweak, with_rounds)
from .splitting import build_plan, check_ranks, fill, rank_walk

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
    return tweak.encode("utf-8") if isinstance(tweak, str) else bytes(tweak)


def _crypt(cfg: CipherConfig, key: IntFpeKey, spec, text: str, tweak, backend,
           decrypting: bool) -> str:
    """Rank text into slots, map them through the backend (an Fe1Backend in
    one crypt_slots call), and fill text's template with the results."""
    plan = build_plan(spec, cfg.max_size)
    if backend is None:
        backend = Fe1Backend(walk_budget=cfg.walk_budget)
    k = with_rounds(key, cfg.rounds)
    fp = format_fingerprint(spec, cfg.max_size)
    extra = _as_bytes(tweak)
    slots, template = rank_walk(plan, text)
    if isinstance(backend, Fe1Backend):
        ranks = crypt_slots(k, fp, extra, slots, decrypting, backend.walk_budget, backend.recorder)
    else:
        slot_fn = backend.decrypt if decrypting else backend.encrypt
        ranks = [slot_fn(k, slot_tweak(fp, i, extra), n, r) for i, (r, n) in enumerate(slots)]
    # the backend may return anything: check its ranks before the fill
    check_ranks(ranks, [n for _, n in slots])
    return fill(template, ranks)


def encrypt(cfg: CipherConfig, key: IntFpeKey, spec, message: str, tweak=b"", backend=None) -> str:
    """Map a member to a member, deterministically under (key, tweak)."""
    return _crypt(cfg, key, spec, message, tweak, backend, decrypting=False)


def decrypt(cfg: CipherConfig, key: IntFpeKey, spec, ciphertext: str, tweak=b"", backend=None) -> str:
    return _crypt(cfg, key, spec, ciphertext, tweak, backend, decrypting=True)
