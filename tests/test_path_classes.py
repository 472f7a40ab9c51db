"""The path classes of the corpus formats under a slot bound.

tests/path_classes.json pins, for every corpus format at bounds 2, 5, 17
and 2**16, how its first 400 members split into classes by
`path_signature`: the number of classes and which members share one, not
the signature values. The same is pinned for 400 members at seeded ranks
spread over the whole format, which the first members of a large format
do not reach. A path that got coarser or finer changes what a bounded
ciphertext reveals and fails here. Regenerate the file only for a
deliberate change of the paths:

    PYTHONPATH=src python3 tests/test_path_classes.py > tests/path_classes.json
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from fpekit import UnsplittableAtom, build_plan, enumerate_members, path_signature, size, unrank

from corpus import ADDRESS, PREFIX_SPECS, SMALL_SPECS

PINNED = Path(__file__).with_name("path_classes.json")
CORPUS = SMALL_SPECS + PREFIX_SPECS + [("address", ADDRESS)]
BOUNDS = (2, 5, 17, 2**16)
MEMBERS = 400


def _partition(spec, bound, members):
    """The class count of the members and a digest of their partition, each
    member labelled by the order in which its class first appears."""
    labels = {}
    partition = [labels.setdefault(path_signature(spec, bound, m), len(labels)) for m in members]
    digest = hashlib.sha256(",".join(map(str, partition)).encode("ascii")).hexdigest()
    return len(labels), digest[:32]


def _classes(name, spec, bound):
    """The partitions of the first members and of the spread ones; None
    when the format cannot be split under the bound."""
    try:
        build_plan(spec, bound)
    except UnsplittableAtom:
        return None
    first = list(enumerate_members(spec, limit=MEMBERS))
    rng = random.Random(name)
    spread = [unrank(spec, rng.randrange(size(spec))) for _ in range(MEMBERS)]
    (classes, partition), (spread_classes, spread_partition) = (
        _partition(spec, bound, first), _partition(spec, bound, spread))
    return {"members": len(first), "classes": classes, "partition": partition,
            "spread_classes": spread_classes, "spread_partition": spread_partition}


def generate() -> dict:
    return {f"{name} {bound}": _classes(name, spec, bound)
            for name, spec in CORPUS for bound in BOUNDS}


def test_the_path_classes_are_unchanged():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert set(pinned) == {f"{name} {bound}" for name, _ in CORPUS for bound in BOUNDS}
    for name, spec in CORPUS:
        for bound in BOUNDS:
            key = f"{name} {bound}"
            assert _classes(name, spec, bound) == pinned[key], key


if __name__ == "__main__":
    json.dump(generate(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
