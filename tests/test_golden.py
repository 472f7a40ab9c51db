"""Known-answer vectors: the ciphertext is the contract.

tests/golden_vectors.json pins, for every corpus format, the ciphertext of
three members (ranks 0, size-1 and one seeded pick) under three slot
bounds, two tweaks and two keys, or the error type where encryption
raises. A change that alters any of them makes old data undecryptable, so
it must be a deliberate, versioned break that regenerates the file:

    PYTHONPATH=src python3 tests/test_golden.py > tests/golden_vectors.json
"""

import json
import random
import sys
from pathlib import Path

from fpekit import CipherConfig, FpeError, IntFpeKey, decrypt, encrypt, serialize_spec, size, unrank

from corpus import PREFIX_SPECS, SMALL_SPECS

GOLDEN = Path(__file__).with_name("golden_vectors.json")
KEYS = (IntFpeKey(bytes(range(32))), IntFpeKey(bytes(range(1, 33))))
BOUNDS = {"inf": None, "2^16": 2**16, "2^64": 2**64, "5": 5}
TWEAKS = ("", "col")


def _ranks(name, spec):
    n = size(spec)
    return sorted({0, n - 1, random.Random(name).randrange(n)})


def _vector(spec, bound, key_index, tweak, plaintext):
    cfg = CipherConfig(max_size=BOUNDS[bound])
    out = {"bound": bound, "key": key_index, "tweak": tweak, "plaintext": plaintext}
    try:
        out["ciphertext"] = encrypt(cfg, KEYS[key_index], spec, plaintext, tweak=tweak)
    except FpeError as e:
        out["error"] = type(e).__name__
    return out


def generate() -> dict:
    formats = {}
    vectors = []
    for name, spec in SMALL_SPECS + PREFIX_SPECS:
        formats[name] = serialize_spec(spec)
        for r in _ranks(name, spec):
            plaintext = unrank(spec, r)
            for bound in BOUNDS:
                for key_index in range(len(KEYS)):
                    for tweak in TWEAKS:
                        vec = _vector(spec, bound, key_index, tweak, plaintext)
                        vectors.append({"format": name, "rank": r, **vec})
    return {"formats": formats, "vectors": vectors}


def test_corpus_formats_are_unchanged():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))["formats"]
    current = {name: serialize_spec(spec) for name, spec in SMALL_SPECS + PREFIX_SPECS}
    assert current == recorded


def test_golden_vectors():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    specs = dict(SMALL_SPECS + PREFIX_SPECS)
    assert {v["format"] for v in golden["vectors"]} == set(specs)
    for v in golden["vectors"]:
        spec = specs[v["format"]]
        assert unrank(spec, v["rank"]) == v["plaintext"], v
        expected = {k: x for k, x in v.items() if k not in ("format", "rank")}
        assert _vector(spec, v["bound"], v["key"], v["tweak"], v["plaintext"]) == expected
        if "ciphertext" in v:
            cfg = CipherConfig(max_size=BOUNDS[v["bound"]])
            back = decrypt(cfg, KEYS[v["key"]], spec, v["ciphertext"], tweak=v["tweak"])
            assert back == v["plaintext"], v


if __name__ == "__main__":
    json.dump(generate(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
