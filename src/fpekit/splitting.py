"""Slot plans: splitting oversized formats into vectors of bounded rank slots.

Each format node builds its own plan once per bound (`Node.plan`, with the
per-type rules in each node's `_split`); this module holds the plan node
types those rules assemble, the greedy grouping they share, the rank
vector, and the public entry points. Greedy grouping keeps adjacent units
together while the aggregate stays within the bound, which uses the fewest
groups possible for a left-to-right partition.

There are four plan node types. `WholeSlot` is a format that fits one
slot. `Route` takes one branch by its spec's `route_key`: a union's part
group by lead character, or a band of lengths or repetition counts, which
`count_route` plans for `_Lengths` and `Range` alike. `Cut` cuts a member
into pieces by its spec's `_cut_rule` (concat parts, a fixed number of
repetitions, a body before its final delimiter) and plans runs of them.
`RadixBlocks` cuts a primitive's `positions` into mixed-radix blocks.

Plan nodes hold the functions they walk with, from the moment they are
built, and never their format node: `WholeSlot` its rank and unrank
functions and size, `Route` its `route_key`, `Cut` its cut rule,
`RadixBlocks` its `positions`. A node a `_split` creates lives on only
through those functions, and a format with its plans makes no reference
cycle, so a dropped format is freed at once by reference counting.

One walk takes a member apart and spells its image. Each plan node builds
its walk function, `crypt(s, out, perm, path)`, once, on the first walk
that reaches it, binding its constants, the functions it holds, and the
walk functions of the children it always visits. At each slot the walk
ranks the piece, calls `perm(rank, size)`, in slot order and with every
size at most the bound, and appends the piece spelled from perm's answer
to `out`; literal delimiters are appended where they stand. Every choice
the ranks do not encode (a route's branch, a rank window) is read off the
input and kept, so the output has its path; when `path` is a list rather
than None, each choice is also appended to it as a tagged tuple, in walk
order, and that sequence is the member's path signature. Ranking is the
membership check: every rank and walk function raises ParseFailure for a
string that is no member, so each entry point walks its input once and
reports a plain NotInFormat; an input that is not text is a BadParameter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from operator import add, getitem, mul
from typing import NamedTuple

from . import formats
from .errors import (
    BadParameter,
    ExampleFormatMismatch,
    NotInFormat,
    ParseFailure,
    VectorShapeMismatch,
    outside,
)
from .intfpe import check_bound

__all__ = ["RankVector", "build_plan", "rank_multi", "unrank_multi", "path_signature"]


class cached_property:
    """functools.cached_property without the class-wide lock that Python
    3.11 takes on every first use, about a microsecond each: a new format
    computes dozens of these values, rank, unrank and walk functions
    included, in its first encryption. A value two threads compute at once
    is computed twice, and either result is correct. It lives here, and
    `formats` imports it, because the plan nodes below use it while
    `formats` is still importing this module."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, node, owner=None):
        if node is None:
            return self
        value = node.__dict__[self.name] = self.func(node)
        return value


@dataclass(frozen=True)
class RankVector:
    """Per-slot ranks and domain sizes, in plan order."""

    ranks: tuple
    sizes: tuple

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(self.ranks))
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if len(self.ranks) != len(self.sizes):
            raise VectorShapeMismatch(f"{len(self.ranks)} ranks against {len(self.sizes)} sizes")
        for i, (r, n) in enumerate(zip(self.ranks, self.sizes)):
            if not 0 <= r < n:
                raise VectorShapeMismatch(f"slot {i}: {outside(r, n)}")

    def __len__(self):
        return len(self.ranks)


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


def radix_blocks(sizes, max_size) -> tuple:
    """Greedy product groups of mixed-radix units, as (lo, hi, window): a unit
    larger than the bound stands alone, with windows of the bound's width."""
    return tuple((lo, hi, max_size if sizes[lo] > max_size else None)
                 for lo, hi in greedy_groups(sizes, max_size, mul))


def count_route(spec, unit: int, max_size) -> Route:
    """The route by count of a spec of spec.min..spec.max units of `unit`
    values each (a string's characters, a range's repetitions): greedy sum
    groups of adjacent counts, each a branch planning the spec narrowed to
    its counts."""
    lo = spec.min
    sizes = [unit**k for k in range(lo, spec.max + 1)]
    return Route(spec.route_key, "len", tuple(
        (range(lo + i, lo + j), replace(spec, min=lo + i, max=lo + j - 1).plan(max_size))
        for i, j in greedy_groups(sizes, max_size, add)))


def _grouped(cut, groups, seams):
    """A function giving one text per group from `cut`'s one text per unit:
    the texts of units lo..hi-1 with the seams `seams[lo:hi-1]` that stand
    between them. It is `cut` itself when every group holds one unit."""
    if all(hi - lo == 1 for lo, hi, _ in groups):
        return cut
    # per group: its bounds, and the string after each of its units
    afters = tuple((lo, hi, seams[lo:hi - 1] + ("",)) for lo, hi, _ in groups)

    def grouped(s):
        texts = cut(s)
        return ["".join(chain.from_iterable(zip(texts[lo:hi], after))) for lo, hi, after in afters]

    return grouped


# ---------------------------------------------------------------------------
# plan nodes


class _Plan:
    """Base class of the plan node types. Each builds its walk function,
    `crypt(s, out, perm, path)`, in `_make_crypt`; `crypt` holds it once
    built. A node that makes a choice the ranks do not encode appends it to
    `path` unless that is None."""

    @cached_property
    def crypt(self):
        """The walk of this node as one function, built on first use."""
        return self._make_crypt()


@dataclass(frozen=True)
class WholeSlot(_Plan):
    """The whole format fits in one slot: its rank and unrank functions and
    its size."""

    rank: object
    unrank: object
    size: int

    def _make_crypt(self):
        rank, unrank, n = self.rank, self.unrank, self.size

        def crypt(s, out, perm, path):
            out.append(unrank(perm(rank(s), n)))

        return crypt


@dataclass(frozen=True)
class Route(_Plan):
    """Members routed into branches `(keys, plan)` by `route_key`, the
    spec's function giving a member's key (a union's lead character, a
    length or a repetition count).

    The walk takes the one branch whose keys hold a member's key and keeps
    it, appending `(tag, branch index)` to the path, so no slot encodes it.
    """

    route_key: object
    tag: str
    branches: tuple

    def _make_crypt(self):
        route_key, tag = self.route_key, self.tag
        branch_of = {key: ((tag, bi), plan)
                     for bi, (keys, plan) in enumerate(self.branches) for key in keys}

        def crypt(s, out, perm, path):
            branch = branch_of.get(route_key(s))
            if branch is None:
                raise ParseFailure(f"a string of length {len(s)} is on no branch")
            choice, sub = branch
            if path is not None:
                path.append(choice)
            sub.crypt(s, out, perm, path)

        return crypt


@dataclass(frozen=True)
class Cut(_Plan):
    """A member cut into pieces by `cut`, the spec's `_cut_rule`, planned in
    runs `(lo, hi, plan)` of adjacent pieces (concat parts, repetitions, a
    body).

    `seams[i]` is the literal after piece i: inside a group it is part of
    the group's text, and the walk writes it after the group that ends with
    piece i.
    """

    cut: object
    groups: tuple
    seams: tuple

    def _make_crypt(self):
        seams = self.seams
        cut = _grouped(self.cut, self.groups, seams)
        steps = tuple((sub.crypt, seams[hi - 1]) for _, hi, sub in self.groups)

        def crypt(s, out, perm, path):
            for text, (sub, seam) in zip(cut(s), steps):
                sub(text, out, perm, path)
                if seam:
                    out.append(seam)

        return crypt


class Positions(NamedTuple):
    """A primitive read as one mixed-radix digit per position.

    `read` checks a string and gives its digits, one per position: the
    string itself, or a sequence of digit values. `spellings[i]` is what
    position i spells to, indexed by its digit: a character set, or a range
    whose entries are the digit values themselves; its length is the
    position's radix. `finish` turns the spelled positions into the member.
    A block's leftmost digit is its least significant, unless `msd_first`.
    """

    read: object
    spellings: tuple
    finish: object = "".join
    msd_first: bool = False

    @property
    def radices(self) -> list:
        """Each position's radix, not by len(), which refuses a big range."""
        return [sp.stop if isinstance(sp, range) else len(sp) for sp in self.spellings]


def radix_table(positions, lo, hi) -> tuple:
    """The block of positions lo..hi-1 as `(n, weighted, spell)`: its size;
    per position, a map from what `read` gives there to its digit times the
    position's weight (a range for integer digits, which holds no entry per
    value); and, least significant first, each position's index, radix and
    spelling."""
    spellings, radices = positions.spellings, positions.radices
    weighted, spell, n = [None] * (hi - lo), [], 1
    for i in (range(hi - 1, lo - 1, -1) if positions.msd_first else range(lo, hi)):
        sp, radix = spellings[i], radices[i]
        weighted[i - lo] = (range(0, radix * n, n) if isinstance(sp, range)
                            else {c: d * n for d, c in enumerate(sp)})
        spell.append((i, radix, sp))
        n *= radix
    return n, tuple(weighted), tuple(spell)


def radix_coder(positions) -> tuple:
    """Rank and unrank functions of the one unwindowed block of all
    `positions`, read from its `radix_table`."""
    read, finish, width = positions.read, positions.finish, len(positions.spellings)
    _, weighted, spell = radix_table(positions, 0, width)

    def rank(s):
        try:
            return sum(map(getitem, weighted, read(s)))
        except KeyError:
            raise ParseFailure(f"length {width}: a character outside its position's set") from None

    def unrank(r):
        spelled = [None] * width
        for i, radix, sp in spell:
            r, d = divmod(r, radix)
            spelled[i] = sp[d]
        return finish(spelled)

    return rank, unrank


@dataclass(frozen=True)
class RadixBlocks(_Plan):
    """A primitive's `positions` cut into blocks `(lo, hi, window)`.

    A block is one slot, mixed radix over its positions' digits. A block
    whose one position has more digits than the bound has its window set,
    and its slot is the rank window of that width holding the digit, which
    the walk keeps; an integer range or a date is one such position. The
    walk permutes every block, then `positions.finish` spells the member.
    """

    positions: Positions
    blocks: tuple

    def _make_crypt(self):
        read, spellings, finish, _ = positions = self.positions
        width = len(spellings)
        tables = tuple((lo, hi, window, *radix_table(positions, lo, hi))
                       for lo, hi, window in self.blocks)

        def crypt(s, out, perm, path):
            digits, spelled = read(s), [None] * width
            for lo, hi, window, n, weighted, spell in tables:
                try:
                    r = sum(map(getitem, weighted, digits[lo:hi]))
                except KeyError:
                    raise ParseFailure(f"offsets {lo}..{hi - 1}: a character outside its set") from None
                if window is None:
                    r = perm(r, n)
                else:  # r's window of that width stays where it is, and joins the path
                    if path is not None:
                        path.append(("w", r // window))
                    base = r - r % window
                    r = base + perm(r - base, min(window, n - base))
                for i, radix, sp in spell:
                    r, d = divmod(r, radix)
                    spelled[i] = sp[d]
            out.append(finish(spelled))

        return crypt


# ---------------------------------------------------------------------------
# entry points


def build_plan(spec, max_size):
    """The slot plan for a format under a slot-size bound (None = unbounded)."""
    formats.ensure_valid(spec)
    check_bound(max_size)
    return spec.plan(max_size)


def check_text(s) -> None:
    """A member is text: anything else is a BadParameter naming its type."""
    if not isinstance(s, str):
        raise BadParameter(f"a member must be text, not {type(s).__name__}")


def walk(plan, s: str, perm, path) -> str:
    """s with each slot's rank r, of size n, replaced by perm(r, n), from one
    checked walk of the plan; NotInFormat unless s is a member. perm sees the
    slots in plan order and must answer a rank below n. A path list, unless
    None, gets the walk's choices appended."""
    check_text(s)
    out: list = []
    try:
        plan.crypt(s, out, perm, path)
    except ParseFailure:
        raise NotInFormat.of(s) from None
    return "".join(out)


def rank_multi(spec, max_size, s: str) -> RankVector:
    """Rank s into bounded slots. With max_size None this is plain ranking."""
    slots: list = []
    walk(build_plan(spec, max_size), s, lambda r, n: slots.append((r, n)) or r, None)
    ranks, sizes = zip(*slots)
    return RankVector(ranks, sizes)


def unrank_multi(spec, max_size, vector: RankVector, example: str) -> str:
    """Rebuild a member from slot ranks, taking every choice the vector does
    not encode from one checked walk of the example member."""
    plan = build_plan(spec, max_size)
    sizes: list = []

    def replay(_, n):
        i = len(sizes)
        sizes.append(n)
        # a slot the vector does not fit is spelled from rank 0, then refused
        return vector.ranks[i] if i < len(vector) and vector.sizes[i] == n else 0

    try:
        out = walk(plan, example, replay, None)
    except NotInFormat:
        raise ExampleFormatMismatch(
            f"the example (length {len(example)}) is not in the format"
        ) from None
    if vector.sizes != tuple(sizes):
        bad = next((i for i, (a, b) in enumerate(zip(vector.sizes, sizes)) if a != b), None)
        raise VectorShapeMismatch(
            f"{len(vector)} slots, the example has {len(sizes)}" if bad is None
            else f"slot {bad}: vector size {vector.sizes[bad]}, the example's is {sizes[bad]}"
        )
    return out


def path_signature(spec, max_size, s: str) -> tuple:
    """The choices the ranks do not encode (union group, length band, rank
    window) that one checked walk of a member makes, in walk order: members
    share a signature exactly when they take the same path. NotInFormat
    unless s is a member."""
    path: list = []
    walk(build_plan(spec, max_size), s, lambda r, n: r, path)
    return tuple(path)
