"""Slot plans: splitting oversized formats into vectors of bounded rank slots.

Each format node builds its own plan once per bound (`Node.plan`, with the
per-type rules in each node's `_split`); this module holds the plan node
types those rules assemble, the greedy grouping they share, the rank
vector, and the public entry points. Ranking a member walks the plan and
emits (rank, slot_size) pairs with every slot size at most the bound.
The same walk writes a template of the member in output order: literal
text (the delimiters between concat groups, a trailing delimiter) and one
fill item per slot-bearing leaf, `(unrank, base)`. The template holds every
value-dependent choice (union branch, length band, rank window) that the
ranks themselves do not encode, so `fill` spells a member from new ranks
in one flat pass, with no second walk over the plan. Greedy grouping keeps
adjacent units together while the aggregate stays within the bound, which
uses the fewest groups possible for a left-to-right partition.

Ranking is the membership check: every node's `rank` and every plan
node's `rank_into` raise ParseFailure for a string that is no member, so
the entry points here and in `cipher` walk each input once and report a
plain NotInFormat. `unrank_multi` ranks its example with the same walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import formats
from .errors import (
    BadParameter,
    ExampleFormatMismatch,
    NotInFormat,
    ParseFailure,
    VectorShapeMismatch,
    outside,
)

__all__ = ["RankVector", "build_plan", "rank_multi", "unrank_multi", "path_signature"]


@dataclass(frozen=True)
class RankVector:
    """Per-slot ranks and domain sizes, in plan order."""

    ranks: tuple
    sizes: tuple

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(self.ranks))
        object.__setattr__(self, "sizes", tuple(self.sizes))
        check_ranks(self.ranks, self.sizes)

    def __len__(self):
        return len(self.ranks)


def check_ranks(ranks, sizes) -> None:
    """VectorShapeMismatch, naming the slot, unless each size has a rank below it."""
    if len(ranks) != len(sizes):
        raise VectorShapeMismatch(f"{len(ranks)} ranks against {len(sizes)} sizes")
    for i, (r, n) in enumerate(zip(ranks, sizes)):
        if not 0 <= r < n:
            raise VectorShapeMismatch(f"slot {i}: {outside(r, n)}")


def greedy_groups(sizes, max_size, combine):
    """Left-to-right grouping: extend while the aggregate fits the bound.

    An element larger than the bound becomes its own group and is split
    further downstream.
    """
    groups = []
    start = 0
    agg = None
    for i, sz in enumerate(sizes):
        if sz > max_size:
            if agg is not None:
                groups.append((start, i))
            groups.append((i, i + 1))
            agg = None
            start = i + 1
        elif agg is None:
            agg = sz
            start = i
        else:
            nxt = combine(agg, sz)
            if nxt > max_size:
                groups.append((start, i))
                start = i
                agg = sz
            else:
                agg = nxt
    if agg is not None:
        groups.append((start, len(sizes)))
    return groups


# ---------------------------------------------------------------------------
# plan nodes


@dataclass(frozen=True)
class WholeSlot:
    """The whole format fits in one slot."""

    spec: object

    def rank_into(self, s, slots, template):
        spec = self.spec
        slots.append((spec.rank(s), spec.size))
        template.append((spec.unrank, 0))

    def path_signature(self, s):
        return ()


@dataclass(frozen=True)
class UnionGroups:
    """Consecutive union parts grouped by summed size.

    A member is ranked within its group only; which group applies is kept
    in the template, so the slot never encodes it.
    """

    spec: object
    groups: tuple

    def _group_of(self, s):
        part_idx = self.spec.part_of(s)
        return next(gi for gi, (lo, hi, _) in enumerate(self.groups) if lo <= part_idx < hi)

    def rank_into(self, s, slots, template):
        self.groups[self._group_of(s)][2].rank_into(s, slots, template)

    def path_signature(self, s):
        gi = self._group_of(s)
        return (("u", gi),) + self.groups[gi][2].path_signature(s)


@dataclass(frozen=True)
class ConcatGroups:
    """Consecutive concat parts grouped by multiplied size.

    Delimiters inside a group stay part of the group's sub-format; border
    delimiters between groups go into the template here.
    """

    spec: object
    groups: tuple

    def _group_texts(self, s):
        pieces = self.spec.cut(s)
        if len(pieces) == len(self.groups):  # one part per group
            return pieces
        texts = []
        for lo, hi, _ in self.groups:
            chunk = []
            for i in range(lo, hi):
                if i > lo and self.spec.delims is not None:
                    chunk.append(self.spec.delims[i - 1])
                chunk.append(pieces[i])
            texts.append("".join(chunk))
        return texts

    def rank_into(self, s, slots, template):
        delims = self.spec.delims
        for (lo, _, sub), text in zip(self.groups, self._group_texts(s)):
            if lo and delims is not None:
                template.append(delims[lo - 1])
            sub.rank_into(text, slots, template)

    def path_signature(self, s):
        return tuple(
            ("g", gi, sub.path_signature(text))
            for gi, ((_, _, sub), text) in enumerate(
                zip(self.groups, self._group_texts(s))
            )
        )


@dataclass(frozen=True)
class LengthBands:
    """Members routed by length (or repetition count) into sub-format bands."""

    spec: object
    bands: tuple

    def _band_of(self, s):
        m = self.spec.length_of(s)
        for bi, (lo, hi, _) in enumerate(self.bands):
            if lo <= m <= hi:
                return bi
        raise ParseFailure(f"length {m} is in no band")

    def rank_into(self, s, slots, template):
        self.bands[self._band_of(s)][2].rank_into(s, slots, template)

    def path_signature(self, s):
        bi = self._band_of(s)
        return (("len", bi),) + self.bands[bi][2].path_signature(s)


@dataclass(frozen=True)
class RepeatGroups:
    """A fixed repetition count split into runs of adjacent pieces.

    Every group keeps its own delimiters, so the rebuilt group strings
    concatenate directly. The spec's `cut` checks the count and the final
    delimiter.
    """

    spec: object
    groups: tuple

    def _group_text(self, texts, lo, hi):
        sp = self.spec
        delimited = hi < sp.min or sp.last_delimited
        body = sp.delim.join(texts[lo:hi])
        return body + sp.delim if delimited else body

    def rank_into(self, s, slots, template):
        texts = self.spec.cut(s)
        for lo, hi, sub in self.groups:
            sub.rank_into(self._group_text(texts, lo, hi), slots, template)

    def path_signature(self, s):
        texts = self.spec.cut(s)
        return tuple(
            ("g", gi, sub.path_signature(self._group_text(texts, lo, hi)))
            for gi, (lo, hi, sub) in enumerate(self.groups)
        )


@dataclass(frozen=True)
class CharBlocks:
    """A fixed-length body cut into positional blocks."""

    spec: object
    blocks: tuple

    def rank_into(self, s, slots, template):
        if len(s) != self.spec.width:
            raise ParseFailure(f"length {len(s)}, expected {self.spec.width}")
        for lo, hi, sub in self.blocks:
            sub.rank_into(s[lo:hi], slots, template)

    def path_signature(self, s):
        return tuple(
            ("g", bi, sub.path_signature(s[lo:hi]))
            for bi, (lo, hi, sub) in enumerate(self.blocks)
        )


@dataclass(frozen=True)
class TrailingDelim:
    """Strip a trailing delimiter before the sub-plan; the template keeps it."""

    sub: object
    delim: str

    def rank_into(self, s, slots, template):
        if not s.endswith(self.delim):
            raise ParseFailure(f"a string of length {len(s)} lacks the final delimiter")
        self.sub.rank_into(s[:-1], slots, template)
        template.append(self.delim)

    def path_signature(self, s):
        return self.sub.path_signature(s[:-1])


@dataclass(frozen=True)
class RankWindow:
    """Contiguous windows of the rank space; the template keeps the window.

    The fallback for primitives with no positional structure to cut:
    integer ranges, dates, single oversized character positions.
    """

    spec: object
    width: int

    def _window_size(self, win):
        return min(self.width, self.spec.size - win * self.width)

    def rank_into(self, s, slots, template):
        r = self.spec.rank(s)
        win = r // self.width
        slots.append((r - win * self.width, self._window_size(win)))
        template.append((self.spec.unrank, win * self.width))

    def path_signature(self, s):
        return (("w", self.spec.rank(s) // self.width),)


@dataclass(frozen=True)
class SsnComponents:
    """Area, group, and serial as mixed-radix components, grouped greedily.

    A component whose own size exceeds the bound degrades to rank windows
    over that component. One fill item spells the id from all the slots.
    """

    groups: tuple

    @staticmethod
    def build(max_size):
        groups = []
        for lo, hi in greedy_groups(formats.SSN_COMPONENT_SIZES, max_size, mul):
            if hi - lo == 1 and formats.SSN_COMPONENT_SIZES[lo] > max_size:
                groups.append((lo, hi, max_size))
            else:
                groups.append((lo, hi, None))
        return SsnComponents(tuple(groups))

    def rank_into(self, s, slots, template):
        comp = formats.ssn_components(s)
        bases = []
        for lo, hi, width in self.groups:
            if width is None:
                r = 0
                w = 1
                for i in range(lo, hi):
                    r += comp[i] * w
                    w *= formats.SSN_COMPONENT_SIZES[i]
                slots.append((r, w))
                bases.append(0)
            else:
                base = comp[lo] - comp[lo] % width
                slots.append((comp[lo] - base, min(width, formats.SSN_COMPONENT_SIZES[lo] - base)))
                bases.append(base)
        template.append((self._spell, tuple(bases)))

    def _spell(self, values):
        """The id whose group values (base plus rank) these are."""
        comp = [0, 0, 0]
        for (lo, hi, _), v in zip(self.groups, values):
            for i in range(lo, hi):
                v, comp[i] = divmod(v, formats.SSN_COMPONENT_SIZES[i])
        return formats.ssn_from_components(comp)

    def path_signature(self, s):
        comp = formats.ssn_components(s)
        return tuple(
            ("w", lo, comp[lo] // width)
            for lo, _, width in self.groups
            if width is not None
        )


@dataclass(frozen=True)
class CcnBlocks:
    """Payload digits in positional blocks; one fill item spells them all and
    recomputes the check digit."""

    blocks: tuple

    @staticmethod
    def build(max_size):
        blocks = []
        for lo, hi in greedy_groups([10] * 15, max_size, mul):
            if hi - lo == 1 and 10 > max_size:
                blocks.append((lo, hi, max_size))
            else:
                blocks.append((lo, hi, None))
        return CcnBlocks(tuple(blocks))

    def rank_into(self, s, slots, template):
        payload = formats.ccn_payload(s)
        bases = []
        for lo, hi, width in self.blocks:
            v = int(payload[lo:hi])
            if width is None:
                slots.append((v, 10 ** (hi - lo)))
                bases.append(0)
            else:
                base = v - v % width
                slots.append((v - base, min(width, 10 - base)))
                bases.append(base)
        template.append((self._spell, tuple(bases)))

    def _spell(self, values):
        """The card number whose block values (base plus rank) these are."""
        payload = "".join(f"{v:0{hi - lo}d}" for (lo, hi, _), v in zip(self.blocks, values))
        return payload + formats.luhn_digit(payload)

    def path_signature(self, s):
        return tuple(
            ("w", lo, int(s[lo:hi]) // width)
            for lo, hi, width in self.blocks
            if width is not None
        )


# ---------------------------------------------------------------------------
# entry points


def build_plan(spec, max_size):
    """The slot plan for a format under a slot-size bound (None = unbounded)."""
    formats.ensure_valid(spec)
    if max_size is not None and max_size < 2:
        raise BadParameter(f"slot bound must be at least 2, got {max_size}")
    return spec.plan(max_size)


def rank_walk(plan, s: str):
    """The (rank, slot size) pairs of s under a plan and the template that
    spells s from them, from one checked walk; NotInFormat unless s is a
    member."""
    slots: list = []
    template: list = []
    try:
        plan.rank_into(s, slots, template)
    except ParseFailure:
        raise NotInFormat.of(s) from None
    return slots, template


def fill(template, ranks) -> str:
    """Spell a rank walk's template with new slot ranks, in one flat pass.

    Text items stay as they are. A fill item `(unrank, base)` takes the next
    rank and spells `unrank(base + rank)`; a leaf that spans several slots
    gives a tuple of bases, one per slot, and its unrank takes the list of
    sums. The ranks must fit the template's slot sizes: `check_ranks` checks
    them against the walk's sizes before any fill.
    """
    it = iter(ranks)
    out = []
    for item in template:
        if item.__class__ is str:
            out.append(item)
        else:
            unrank, base = item
            if base.__class__ is int:
                out.append(unrank(base + next(it)))
            else:
                out.append(unrank([b + next(it) for b in base]))
    return "".join(out)


def rank_multi(spec, max_size, s: str) -> RankVector:
    """Rank s into bounded slots. With max_size None this is plain ranking."""
    ranks, sizes = zip(*rank_walk(build_plan(spec, max_size), s)[0])
    return RankVector(ranks, sizes)


def unrank_multi(spec, max_size, vector: RankVector, example: str) -> str:
    """Rebuild a member from slot ranks, taking every choice the vector does
    not encode from one checked rank walk of the example member."""
    plan = build_plan(spec, max_size)
    try:
        slots, template = rank_walk(plan, example)
    except NotInFormat:
        raise ExampleFormatMismatch(
            f"the example (length {len(example)}) is not in the format"
        ) from None
    sizes = tuple(n for _, n in slots)
    if vector.sizes != sizes:
        bad = next((i for i, (a, b) in enumerate(zip(vector.sizes, sizes)) if a != b), None)
        raise VectorShapeMismatch(
            f"{len(vector)} slots, the example has {len(sizes)}" if bad is None
            else f"slot {bad}: vector size {vector.sizes[bad]}, the example's is {sizes[bad]}"
        )
    return fill(template, vector.ranks)


def path_signature(spec, max_size, s: str):
    """The variant path a member takes through the plan; hashable."""
    plan = build_plan(spec, max_size)
    if not spec.contains(s):
        raise NotInFormat.of(s)
    return plan.path_signature(s)
