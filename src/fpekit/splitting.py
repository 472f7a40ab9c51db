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

A route by count plans a band when a walk first takes it, or a read of
its `branches` first asks for it, and holds nothing for any other band;
past the greedy head, where every count is its own band, a count's band is
found by arithmetic. So a member of `VarString(1, 1000)` at 2^16 plans the
one of 998 bands it takes. Refusal stays eager: `Range` plans its inner
before its route, and a band refuses a bound exactly when that inner does,
so whether a member can be enciphered never depends on its band.

Plan nodes hold the functions they walk with, from the moment they are
built, and never their format node: `WholeSlot` its rank and unrank
functions and size, `Route` its `route_key`, `Cut` its cut rule,
`RadixBlocks` its `positions`, and a route by count a copy of the spec
that only its bands are narrowed from. A node a `_split` creates lives on
only through those, and a format with its plans makes no reference cycle,
so a dropped format is freed at once by reference counting.

One walk takes a member apart and spells its image. Each plan node builds
its walk function, `crypt(s, out, perm, path)`, once, on the first walk
that reaches it, binding its constants, the functions it holds, and the
walk functions of the children it always visits; the blocks of a
`RadixBlocks` with the same spellings share one rank map. At each slot the
walk ranks the piece, calls `perm(rank, size)`, in slot order and with every
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

from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import chain
from operator import mul
from typing import NamedTuple

from . import formats
from .errors import (
    BadParameter,
    ExampleFormatMismatch,
    NotInFormat,
    ParseFailure,
    VectorShapeMismatch,
    decimal_text,
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
            if type(r) is not int or type(n) is not int:
                raise BadParameter(f"slot {i}: ranks and sizes must be ints, "
                                   f"not {type(r).__name__} and {type(n).__name__}")
            if not 0 <= r < n:
                raise VectorShapeMismatch(f"slot {i}: {outside(r, n)}")

    def __len__(self):
        return len(self.ranks)

    def __repr__(self):  # each number by decimal_text, so that no repr fails to form
        ranks, sizes = (", ".join(map(decimal_text, xs)) + "," * (len(xs) == 1)
                        for xs in (self.ranks, self.sizes))
        return f"RankVector(ranks=({ranks}), sizes=({sizes}))"


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
    its counts, on the first walk that takes it, from a copy of the spec.

    A count is no smaller than the one before it, so once a group holds one
    count, so does every group after it: only that greedy head is worked
    out, and a later count's group is found by arithmetic (with one value a
    unit, every group holds max_size counts and there is no head)."""
    lo, hi, band = spec.min, spec.max, replace(spec)
    starts, k, n = [], lo, unit**lo  # n: the size of count k
    while unit > 1 and k <= hi:
        j, total, n = k + 1, n, n * unit
        while j <= hi and total + n <= max_size:
            j, total, n = j + 1, total + n, n * unit
        if j == k + 1:
            break
        starts.append(k)
        k = j
    head, tail, width = len(starts), k, max_size if unit == 1 else 1
    starts.append(tail)

    def find(c):
        if not lo <= c <= hi:
            return None
        return head + (c - tail) // width if c >= tail else bisect_right(starts, c) - 1

    def counts(bi):
        if bi < head:
            return range(starts[bi], starts[bi + 1])
        first = tail + (bi - head) * width
        return range(first, min(hi + 1, first + width))

    def plan(keys):
        return replace(band, min=keys[0], max=keys[-1]).plan(max_size)

    return Route(spec.route_key, "len", Bands(head - (tail - hi - 1) // width, counts, plan), find)


class Bands:
    """A route's branches, `n` of them, as a sequence of `(keys, plan)`:
    `keys(bi)` gives branch bi's keys, and `plan(keys)` plans it on its first
    use. A branch nobody asks for holds nothing. Two threads may plan one
    branch at once; the first plan stored is the one both go on with."""

    def __init__(self, n: int, keys, plan):
        self.n, self.keys, self.plan, self.built = n, keys, plan, {}

    def __len__(self):
        return self.n

    def __getitem__(self, bi):
        if not 0 <= bi < self.n:
            raise IndexError(bi)
        keys, plan = self.keys(bi), self.built.get(bi)
        if plan is None:
            plan = self.built.setdefault(bi, self.plan(keys))
        return keys, plan


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
    """Members routed into `branches` by `route_key`, the spec's function
    giving a member's key (a union's lead character, a length or a
    repetition count). `branches` is a sequence of `(keys, plan)`: a tuple,
    or a route by count's `Bands`. `find` gives the index of the branch
    whose keys hold a key, None for a key on no branch.

    The walk takes that branch and keeps it, appending `(tag, branch index)`
    to the path, so no slot encodes it. It looks a key's branch up once.
    """

    route_key: object
    tag: str
    branches: object
    find: object

    def _make_crypt(self):
        route_key, tag, branches, find = self.route_key, self.tag, self.branches, self.find
        taken = {}  # per key walked: (its path choice, its branch's walk)

        def crypt(s, out, perm, path):
            key = route_key(s)
            branch = taken.get(key)
            if branch is None:
                bi = find(key)
                if bi is None:
                    raise ParseFailure(f"a string of length {len(s)} is on no branch")
                branch = taken[key] = (tag, bi), branches[bi][1].crypt
            choice, sub = branch
            if path is not None:
                path.append(choice)
            sub(s, out, perm, path)

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


def radix_table(positions, lo, hi, maps: dict) -> tuple:
    """The block of positions lo..hi-1 as `(n, weighted, steps, top, last)`:
    its size; `(index, map)` per position, the map taking what `read` gives
    there to its digit times the position's weight (a range for integer
    digits, which holds no entry per value); `(index, radix, spelling)` per
    position but the most significant, least significant first; and that
    one's index and spelling. Blocks of the same spellings share one size
    and one tuple of maps, kept in `maps` by their spellings."""
    spellings, steps = positions.spellings, []
    for i in (range(hi - 1, lo - 1, -1) if positions.msd_first else range(lo, hi)):
        sp = spellings[i]
        steps.append((i, sp.stop if isinstance(sp, range) else len(sp), sp))
    shared = maps.get(spellings[lo:hi])
    if shared is None:
        weighted, n = [None] * (hi - lo), 1
        for i, radix, sp in steps:
            weighted[i - lo] = (range(0, radix * n, n) if isinstance(sp, range)
                                else {c: d * n for d, c in enumerate(sp)})
            n *= radix
        shared = maps[spellings[lo:hi]] = n, tuple(weighted)
    top, _, last = steps.pop()
    return shared[0], tuple(zip(range(lo, hi), shared[1])), tuple(steps), top, last


def radix_coder(positions) -> tuple:
    """Rank and unrank functions of the one unwindowed block of all
    `positions`, read from its `radix_table` entry as the walk reads it."""
    read, finish, width = positions.read, positions.finish, len(positions.spellings)
    _, weighted, steps, top, last = radix_table(positions, 0, width, {})

    def rank(s):
        digits, r = read(s), 0
        try:
            for i, w in weighted:
                r += w[digits[i]]
        except KeyError:
            raise ParseFailure(f"length {width}: a character outside its position's set") from None
        return r

    def unrank(r):
        spelled = [None] * width
        for i, radix, sp in steps:
            r, d = divmod(r, radix)
            spelled[i] = sp[d]
        spelled[top] = last[r]
        return finish(spelled)

    return rank, unrank


@dataclass(frozen=True)
class RadixBlocks(_Plan):
    """A primitive's `positions` cut into blocks `(lo, hi, window)`.

    A block is one slot, mixed radix over its positions' digits. A block
    whose one position has more digits than the bound has its window set,
    and its slot is the rank window of that width holding the digit, which
    the walk keeps; an integer range or a date is one such position. The
    walk reads each block's `radix_table` entry: it ranks the block by one
    map lookup per position, permutes it, and spells it by one divmod per
    position but the most significant, whose spelling the rank left over
    indexes; then `positions.finish` spells the member.
    """

    positions: Positions
    blocks: tuple

    def _make_crypt(self):
        read, spellings, finish, _ = positions = self.positions
        width, maps = len(spellings), {}
        tables = tuple((lo, hi, window, *radix_table(positions, lo, hi, maps))
                       for lo, hi, window in self.blocks)

        def crypt(s, out, perm, path):
            digits, spelled = read(s), [None] * width
            for lo, hi, window, n, weighted, steps, top, last in tables:
                r = 0
                try:
                    for i, w in weighted:
                        r += w[digits[i]]
                except KeyError:
                    raise ParseFailure(f"offsets {lo}..{hi - 1}: a character outside its set") from None
                if window is None:
                    r = perm(r, n)
                else:  # r's window of that width stays where it is, and joins the path
                    if path is not None:
                        path.append(("w", r // window))
                    base = r - r % window
                    r = base + perm(r - base, min(window, n - base))
                for i, radix, sp in steps:
                    r, d = divmod(r, radix)
                    spelled[i] = sp[d]
                spelled[top] = last[r]
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
