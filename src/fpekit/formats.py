"""Format trees: one class per node type, owning all that its type means.

A format is an immutable tree of primitive and composite nodes describing a
finite set of strings. Each node class defines, for its own type:

- ``validate_into``: the invariants its parameters must satisfy;
- ``size`` and ``chars``: the exact member count and an alphabet cover;
- ``_make_ranker``: its rank function, which gives the position of a
  member and raises ParseFailure for any other string, so ranking is the
  membership check (``contains`` is "rank does not raise");
- ``_make_unranker``: its unrank function, which gives the member at an
  in-range rank, unchecked;
- ``take`` for the rigid (prefix-parsable) primitives;
- ``members``: generative enumeration in rank order;
- ``positions`` and ``_split``: its mixed-radix digits (by default one, the
  rank) and its slot plan under a bound, from ``splitting``'s plan nodes;
  a node planned as a ``splitting.Route`` gives the key it is routed by
  (``route_key``: a union's lead character, a length or repetition count),
  and one planned as a ``splitting.Cut`` gives its pieces (``_cut_rule``);
- ``to_json`` and ``from_json``: its canonical JSON form, read through
  ``dsl``'s typed reader.

Canonical order is mixed-radix with the first (leftmost) unit least
significant, and character sets are ordered by ascending code point.
`VarString` and `DelimVarString` rank a character a step (Horner's rule)
and unrank k characters a step: one divmod by base**k picks a string from a
table of every k-character string, k the largest with base**k <= 1,024
(1 over 32 characters), one table per alphabet in a bounded cache.
Derived values (violations, size, alphabet, lookup tables, rank and unrank
functions, plans) are computed on first use and stored on the node itself.
A node builds its rank and unrank functions once, binding its own
constants, its children's functions and, for `Concat` and `Range`, its
cut rule, so ranking a member runs one function per node it passes and
calls no method. No value a node derives refers back to it, so a format
nobody references is freed at once, by reference counting, with all
derived from it. A malformed tree can still be built and reported by
validate(). The module functions are the public entry points.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from datetime import date as _date
from datetime import datetime, time, timedelta
from functools import lru_cache

from . import splitting
from .splitting import cached_property
from .errors import (
    BadLength,
    BadParameter,
    InvalidFormat,
    NonDigit,
    OutOfRange,
    ParseFailure,
    UnsplittableAtom,
)

DIGITS = "0123456789"

SSN_SIZE = 898 * 99 * 9999
CCN_SIZE = 10**15


@dataclass(frozen=True)
class Violation:
    path: str
    code: str
    message: str


# ---------------------------------------------------------------------------
# character sets


def _charset(chars) -> str:
    """Normalize a character collection to a sorted, duplicate-free string."""
    return "".join(sorted(set(chars)))


def parse_charset(text: str, path: str = "charset") -> str:
    """Expand range notation ("a-z0-9", with "\\-" and "\\\\" escapes); a
    bare dash is only legal between two chars."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\":
            if i + 1 >= len(text) or text[i + 1] not in "-\\":
                raise BadParameter(f"{path}: bad escape at offset {i}")
            tokens.append((text[i + 1], True))
            i += 2
        else:
            tokens.append((c, False))
            i += 1
    out = []
    j = 0
    while j < len(tokens):
        if j + 2 < len(tokens) and tokens[j + 1] == ("-", False):
            lo, hi = tokens[j][0], tokens[j + 2][0]
            if ord(lo) > ord(hi):
                raise BadParameter(f"{path}: descending range {lo!r}-{hi!r}")
            out.extend(chr(k) for k in range(ord(lo), ord(hi) + 1))
            j += 3
        elif tokens[j] == ("-", False):
            raise BadParameter(f"{path}: bare dash must be escaped or form a range")
        else:
            out.append(tokens[j][0])
            j += 1
    return "".join(out)


def serialize_charset(chars: str) -> str:
    """Inverse of parse_charset on normalized (sorted, unique) input."""

    def lit(c):
        return "\\" + c if c in "-\\" else c

    pts = [ord(c) for c in chars]
    out = []
    i = 0
    while i < len(pts):
        j = i
        while j + 1 < len(pts) and pts[j + 1] == pts[j] + 1:
            j += 1
        if j - i >= 2:
            out.append(lit(chr(pts[i])) + "-" + lit(chr(pts[j])))
        else:
            out.extend(lit(chr(pts[k])) for k in range(i, j + 1))
        i = j + 1
    return "".join(out)


# ---------------------------------------------------------------------------
# counting and enumeration helpers


def _count_starts(base: int, lo: int, hi: int) -> tuple:
    """The rank at which each piece count lo..hi starts, when members sort by
    count first over `base` choices per piece, followed by the total."""
    return tuple(itertools.accumulate((base**k for k in range(lo, hi + 1)), initial=0))


# The most strings in a spelling table: 676 over a-z, 1,000 over 0-9. A
# table takes at most about 70 kB (1,024 strings of 10 binary digits).
SPELL_LIMIT = 1024


@lru_cache(maxsize=32)  # nodes over one alphabet share it; 32 tables hold under 2.5 MB
def _spellings(alphabet: str) -> tuple:
    """(k, every k-character string over the alphabet in rank order, leftmost
    character least significant), k the largest with len(alphabet)**k <=
    SPELL_LIMIT, and 1 for an alphabet of one character or over 32."""
    k, spell = 1, alphabet
    while len(alphabet) > 1 and len(spell) * len(alphabet) <= SPELL_LIMIT:
        k, spell = k + 1, [c + s for s in spell for c in alphabet]
    return k, tuple(spell)


def _lookup(index: dict):
    """A rank function that reads a member's rank from a dict."""

    def rank(s):
        r = index.get(s)
        if r is None:
            raise ParseFailure.of(s)
        return r

    return rank


def _fixed_stream(charsets):
    # first position varies fastest
    for tup in itertools.product(*reversed(charsets)):
        yield "".join(reversed(tup))


def _tuple_stream(factories):
    """Cartesian product of piece streams, factor 0 least significant."""

    def gen(i):
        if i == len(factories):
            yield ()
            return
        for rest in gen(i + 1):
            for piece in factories[i]():
                yield (piece,) + rest

    return gen(0)


# ---------------------------------------------------------------------------
# primitive value codecs


_LUHN_DOUBLED = bytes.maketrans(b"0123456789", b"0246813579")  # the digit of 2d's digit sum


def luhn_digit(digits: str) -> str:
    """The check digit that makes digits + check Luhn-valid (16 total)."""
    if len(digits) != 15:
        raise BadLength(f"expected 15 digits, got {len(digits)}")
    if not _all_decimal(digits):
        raise NonDigit(f"not a decimal digit: {next(c for c in digits if not _all_decimal(c))!r}")
    b = digits.encode("ascii")  # each byte is its digit plus 48
    total = sum(b[0::2].translate(_LUHN_DOUBLED)) + sum(b[1::2]) - 48 * 15
    return str(-total % 10)


def _with_luhn_digit(digits: str) -> str:
    return digits + luhn_digit(digits)


def _all_decimal(s: str) -> bool:
    """True when every character of s is an ASCII digit (so also for "")."""
    return not s or s.isascii() and s.isdigit()


SSN_COMPONENT_SIZES = (898, 99, 9999)


def ssn_components(s: str) -> tuple:
    """(area, group, serial) indices of a valid nine-digit id, each from 0;
    ParseFailure for a string that breaks the exclusion rules."""
    if not (
        len(s) == 9
        and _all_decimal(s)
        and s[:3] not in ("000", "666")
        and s[:3] < "900"
        and s[3:5] != "00"
        and s[5:] != "0000"
    ):
        raise ParseFailure.of(s)
    area, group, serial = int(s[:3]), int(s[3:5]), int(s[5:])
    return (area - 1 - (1 if area > 666 else 0), group - 1, serial - 1)


def ccn_payload(s: str) -> str:
    """The fifteen payload digits of a Luhn-valid card number; ParseFailure
    for anything else."""
    if not (len(s) == 16 and _all_decimal(s) and luhn_digit(s[:15]) == s[15]):
        raise ParseFailure.of(s)
    return s[:15]


def ssn_from_components(comp) -> str:
    ai, gi, ri = comp
    area = ai + 1 if ai + 1 < 666 else ai + 2
    return f"{area:03d}{gi + 1:02d}{ri + 1:04d}"


def _parse_date_string(s: str, granularity: str):
    """Strict dd.mm.yyyy [hh:mm:ss] reader; None when malformed."""
    width = 10 if granularity == "day" else 19
    if len(s) != width or s[2] != "." or s[5] != ".":
        return None
    fields = [s[6:10], s[3:5], s[0:2]]  # year, month, day
    if width == 19:
        if s[10] != " " or s[13] != ":" or s[16] != ":":
            return None
        fields += [s[11:13], s[14:16], s[17:19]]
    if not _all_decimal("".join(fields)):
        return None
    try:
        return datetime(*map(int, fields))
    except ValueError:
        return None


def format_date_string(dt: datetime, granularity: str) -> str:
    out = f"{dt.day:02d}.{dt.month:02d}.{dt.year:04d}"
    if granularity == "second":
        out += f" {dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}"
    return out


def date_offset(min_date: datetime, d: datetime, granularity: str) -> int:
    """Days or seconds from the lower bound to d."""
    if d is None or d < min_date:
        raise OutOfRange(f"{d} is before {min_date}")
    if granularity == "day":
        return d.toordinal() - min_date.toordinal()
    delta = d - min_date
    return delta.days * 86400 + delta.seconds


def offset_to_date(min_date: datetime, r: int, granularity: str) -> datetime:
    """Inverse of date_offset."""
    if r < 0:
        raise OutOfRange(f"negative offset {r}")
    try:
        if granularity == "day":
            return min_date + timedelta(days=r)
        return min_date + timedelta(seconds=r)
    except OverflowError:
        raise OutOfRange(f"offset {r} leaves the calendar range") from None


# ---------------------------------------------------------------------------
# the node types


class Node:
    """Base class of the format node types.

    Subclasses are frozen dataclasses, so equality and hashing see only the
    declared fields, never the values a node caches on itself. Besides the
    methods below, each subclass provides `size` (exact member count) and
    `chars` (a frozenset covering every character members can contain).
    `rank` and `unrank` call the node's `ranker` and `unranker`: functions
    each subclass builds once in `_make_ranker` and `_make_unranker`, from
    its constants and its children's built functions.
    """

    kind = ""  # the "type" tag of the JSON form
    rigid = False  # a member can be cut off the front of a longer string
    width = None  # the length of every member, when all members have one

    @cached_property
    def violations(self) -> tuple:
        """Every invariant violation in this subtree, found once."""
        out: list = []
        self.validate_into("", out)
        return tuple(out)

    def validate_into(self, path: str, out: list) -> None:
        """Append this subtree's violations, with paths below `path`."""

    def contains(self, s: str) -> bool:
        """True iff s is a member, which is exactly when `rank` succeeds."""
        try:
            self.rank(s)
        except ParseFailure:
            return False
        return True

    def take(self, s: str, pos: int) -> int:
        """The end index of the piece a member of a rigid node would span from
        pos, found from its boundary alone: `rank` checks the piece."""
        raise ParseFailure(f"{type(self).__name__} is not prefix-parsable")

    def members(self):
        """Stream members generatively, in rank order (never via unrank)."""
        raise NotImplementedError

    def rank(self, s: str) -> int:
        """Position of a member in canonical order; ParseFailure, giving
        lengths and offsets but never the text, for any other string."""
        return self.ranker(s)

    def unrank(self, v: int) -> str:
        """The member at position v; the entry points check 0 <= v < size."""
        return self.unranker(v)

    @cached_property
    def ranker(self):
        """`rank` as one function, built on first use."""
        return self._make_ranker()

    @cached_property
    def unranker(self):
        """`unrank` as one function, built on first use."""
        return self._make_unranker()

    def _make_ranker(self):
        raise NotImplementedError

    def _make_unranker(self):
        raise NotImplementedError

    @cached_property
    def _plans(self) -> dict:
        return {}

    @cached_property
    def fingerprints(self) -> dict:
        """`cipher.format_fingerprint`'s digests of this node, by slot bound."""
        return {}

    def plan(self, max_size):
        """The slot plan under a bound (None = unbounded), built once per bound."""
        plan = self._plans.get(max_size)
        if plan is None:
            if max_size is None or self.size <= max_size:
                plan = splitting.WholeSlot(self.ranker, self.unranker, self.size)
            else:
                plan = self._split(max_size)
            self._plans[max_size] = plan
        return plan

    @cached_property
    def positions(self):
        """Mixed-radix digits to split by: by default one, the rank."""
        rank, unrank = self.ranker, self.unranker
        return splitting.Positions(lambda s: (rank(s),), (range(self.size),), lambda d: unrank(d[0]))

    def _split(self, max_size):
        """The plan for a bound below this node's size: blocks of `positions`."""
        positions = self.positions
        return splitting.RadixBlocks(positions, splitting.radix_blocks(positions.radices, max_size))

    def to_json(self) -> dict:
        return {"type": self.kind}

    @classmethod
    def from_json(cls, r):
        """Build a node from its JSON object, read through dsl's reader `r`."""
        return cls()


def _validate(spec, path: str, out: list) -> bool:
    """Append the violations of one subtree; True when it has none."""
    n = len(out)
    if isinstance(spec, Node):
        spec.validate_into(path, out)
    else:
        out.append(Violation(path, "BadParameter", f"not a format node: {type(spec).__name__}"))
    return len(out) == n


class _FixedWidth(Node):
    """A rigid primitive whose members all have `width` characters."""

    rigid = True

    def take(self, s, pos):
        end = pos + self.width
        if end > len(s):
            raise ParseFailure(f"no {type(self).__name__} member at offset {pos}")
        return end


@dataclass(frozen=True)
class Ssn(_FixedWidth):
    """Nine decimal digits under the area/group/serial exclusion rules.

    Rank order is numeric order: mixed radix over the (area, group, serial)
    component indices, serial fastest. The split plan reads the same
    components as positions, area least significant.
    """

    kind = "ssn"
    width = 9
    size = SSN_SIZE
    chars = frozenset(DIGITS)
    positions = splitting.Positions(ssn_components, tuple(map(range, SSN_COMPONENT_SIZES)),
                                    ssn_from_components)

    def members(self):
        for area in itertools.chain(range(1, 666), range(667, 900)):
            for group in range(1, 100):
                for serial in range(1, 10000):
                    yield f"{area:03d}{group:02d}{serial:04d}"

    def _make_ranker(self):
        def rank(s):
            area, group, serial = ssn_components(s)
            return (area * 99 + group) * 9999 + serial

        return rank

    def _make_unranker(self):
        return lambda v: ssn_from_components((*divmod(v // 9999, 99), v % 9999))


@dataclass(frozen=True)
class Ccn(_FixedWidth):
    """Sixteen decimal digits, the last being the Luhn check digit."""

    kind = "ccn"
    width = 16
    size = CCN_SIZE
    chars = frozenset(DIGITS)
    # a block of payload digits ranks as the number they spell
    positions = splitting.Positions(ccn_payload, (DIGITS,) * 15,
                                    lambda digits: _with_luhn_digit("".join(digits)), True)

    def members(self):
        return (_with_luhn_digit(f"{payload:015d}") for payload in range(CCN_SIZE))

    def _make_ranker(self):
        return lambda s: int(ccn_payload(s))

    def _make_unranker(self):
        return lambda v: _with_luhn_digit(f"{v:015d}")


@dataclass(frozen=True)
class Date(_FixedWidth):
    """Calendar dates between two bounds, rendered as dd.mm.yyyy.

    granularity "day" counts days; "second" counts seconds and renders as
    dd.mm.yyyy hh:mm:ss. Bounds are proleptic Gregorian datetimes.
    """

    min: datetime
    max: datetime
    granularity: str = "day"

    kind = "date"

    def __post_init__(self):
        for name in ("min", "max"):
            v = getattr(self, name)
            if isinstance(v, _date) and not isinstance(v, datetime):
                object.__setattr__(self, name, datetime(v.year, v.month, v.day))

    def validate_into(self, path, out):
        if self.granularity not in ("day", "second"):
            out.append(Violation(path, "BadParameter", f"unknown granularity {self.granularity!r}"))
        elif self.min > self.max:
            out.append(Violation(path, "BadBounds", "min date is after max date"))
        elif self.granularity == "day":
            if any(b.time() != time(0) for b in (self.min, self.max)):
                out.append(Violation(path, "BadParameter", "day granularity needs midnight bounds"))
        elif any(b.microsecond for b in (self.min, self.max)):
            out.append(Violation(path, "BadParameter", "sub-second bounds are not representable"))

    @property
    def width(self):
        return 10 if self.granularity == "day" else 19

    @cached_property
    def size(self):
        if self.granularity == "day":
            return self.max.toordinal() - self.min.toordinal() + 1
        delta = self.max - self.min
        return delta.days * 86400 + delta.seconds + 1

    @cached_property
    def chars(self):
        return frozenset(DIGITS + "." + (" :" if self.granularity == "second" else ""))

    def members(self):
        step = timedelta(days=1) if self.granularity == "day" else timedelta(seconds=1)
        cur = self.min
        for _ in range(self.size):
            yield format_date_string(cur, self.granularity)
            cur += step

    def _make_ranker(self):
        lo, hi, gran = self.min, self.max, self.granularity

        def rank(s):
            dt = _parse_date_string(s, gran)
            if dt is None or not lo <= dt <= hi:
                raise ParseFailure.of(s)
            return date_offset(lo, dt, gran)

        return rank

    def _make_unranker(self):
        lo, gran = self.min, self.granularity
        return lambda v: format_date_string(offset_to_date(lo, v, gran), gran)

    def to_json(self):
        def text(dt):
            if self.granularity == "day":
                return dt.date().isoformat()
            return dt.isoformat(sep="T", timespec="seconds")

        return {"type": self.kind, "min": text(self.min), "max": text(self.max),
                "granularity": self.granularity}

    @classmethod
    def from_json(cls, r):
        gran = r.get("granularity", str, "day")
        if gran not in ("day", "second"):
            r.fail(f"granularity must be 'day' or 'second', got {gran!r}")
        return cls(r.iso_datetime("min"), r.iso_datetime("max"), gran)


@dataclass(frozen=True)
class FixedString(_FixedWidth):
    """Fixed-length strings with one character set per position."""

    charsets: tuple

    kind = "fixed"

    def __post_init__(self):
        object.__setattr__(
            self, "charsets", tuple(_charset(cs) for cs in self.charsets)
        )

    def validate_into(self, path, out):
        if not self.charsets:
            out.append(Violation(path, "BadParameter", "needs at least one position"))
        for i, cs in enumerate(self.charsets):
            if not cs:
                out.append(Violation(f"{path}.charsets[{i}]", "EmptyAlphabet", "empty character set"))

    @property
    def width(self):
        return len(self.charsets)

    @cached_property
    def size(self):
        n = 1
        for cs in self.charsets:
            n *= len(cs)
        return n

    @cached_property
    def chars(self):
        return frozenset("".join(self.charsets))

    def members(self):
        return _fixed_stream(self.charsets)

    @cached_property
    def positions(self):
        width = self.width

        def read(s):
            if len(s) != width:
                raise ParseFailure(f"length {len(s)}, expected {width}")
            return s

        return splitting.Positions(read, self.charsets)

    @cached_property
    def _coder(self):
        """Rank and unrank, as the one block of all positions; a lone
        position is one lookup in the table's one map, and one index."""
        if self.width == 1:
            return (_lookup(splitting.radix_table(self.positions, 0, 1)[1][0]),
                    self.charsets[0].__getitem__)
        return splitting.radix_coder(self.positions)

    def _make_ranker(self):
        return self._coder[0]

    def _make_unranker(self):
        return self._coder[1]

    def to_json(self):
        return {"type": self.kind, "charsets": [serialize_charset(cs) for cs in self.charsets]}

    @classmethod
    def from_json(cls, r):
        raw = r.texts("charsets")
        return cls(tuple(r.charset(cs, f"charsets[{i}]") for i, cs in enumerate(raw)))


class _Lengths(Node):
    """Strings over one alphabet with length min..max, each followed by
    `suffix` (nothing, or DelimVarString's delimiter)."""

    suffix = ""

    def __post_init__(self):
        object.__setattr__(self, "alphabet", _charset(self.alphabet))

    def validate_into(self, path, out):
        if not 0 <= self.min <= self.max:
            out.append(Violation(path, "BadBounds", f"bad length bounds {self.min}..{self.max}"))
        if not self.alphabet:
            out.append(Violation(path, "EmptyAlphabet", "empty alphabet"))

    @cached_property
    def _starts(self) -> tuple:
        return _count_starts(len(self.alphabet), self.min, self.max)

    @cached_property
    def size(self):
        return self._starts[-1]

    @cached_property
    def chars(self):
        return frozenset(self.alphabet + self.suffix)

    @cached_property
    def route_key(self):
        """The function giving the body length a member's branch is chosen by."""
        k = len(self.suffix)
        return (lambda s: len(s) - k) if k else len

    def members(self):
        for length in range(self.min, self.max + 1):
            for body in _fixed_stream((self.alphabet,) * length):
                yield body + self.suffix

    @cached_property
    def _index(self) -> dict:
        return {c: i for i, c in enumerate(self.alphabet)}

    def _make_ranker(self):
        index, base, starts = self._index, len(self.alphabet), self._starts
        lo, hi, suffix = self.min, self.max, self.suffix

        def rank(s):  # a body, without the suffix
            n = len(s)
            if not lo <= n <= hi:
                raise ParseFailure.of(s)
            r = 0
            try:
                for c in reversed(s):  # Horner's rule, last character first
                    r = r * base + index[c]
            except KeyError:
                raise ParseFailure(f"length {n}: a character outside the alphabet") from None
            return starts[n - lo] + r

        if not suffix:
            return rank

        def rank_with_suffix(s):
            if not s.endswith(suffix):
                raise ParseFailure(f"a string of length {len(s)} lacks the final delimiter")
            return rank(s[:-1])

        return rank_with_suffix

    def _make_unranker(self):
        k, spell = _spellings(self.alphabet)
        step, starts, lo, suffix = len(spell), self._starts, self.min, self.suffix

        def unrank(v):
            i = bisect.bisect_right(starts, v) - 1
            v -= starts[i]
            whole, rest = divmod(lo + i, k)
            chunks = []
            for _ in range(whole):  # k characters a step, first ones first
                v, d = divmod(v, step)
                chunks.append(spell[d])
            if rest:  # v < base**rest: its k-string's first `rest` characters
                chunks.append(spell[v][:rest])
            return "".join(chunks) + suffix

        return unrank

    def _split(self, max_size):
        if self.min < self.max:
            return splitting.count_route(self, len(self.alphabet), max_size)
        sub = FixedString((self.alphabet,) * self.min).plan(max_size)
        return splitting.Cut(self._cut_rule, ((0, 1, sub),), (self.suffix,)) if self.suffix else sub

    def to_json(self):
        return {"type": self.kind, "min": self.min, "max": self.max,
                "alphabet": serialize_charset(self.alphabet)}


@dataclass(frozen=True)
class VarString(_Lengths):
    """Strings over one alphabet with length between min and max. Non-rigid."""

    min: int
    max: int
    alphabet: str

    kind = "var"

    @classmethod
    def from_json(cls, r):
        return cls(r.get("min", int), r.get("max", int),
                   r.charset(r.get("alphabet", str), "alphabet"))


@dataclass(frozen=True)
class DelimVarString(_Lengths):
    """Strings over one alphabet, length min..max, plus a trailing delimiter."""

    min: int
    max: int
    alphabet: str
    delim: str

    kind = "delim_var"
    rigid = True

    @property
    def suffix(self):
        return self.delim

    def validate_into(self, path, out):
        super().validate_into(path, out)
        if len(self.delim) != 1:
            out.append(Violation(path, "BadDelimiter", "delimiter must be a single character"))
        elif self.delim in self.alphabet:
            out.append(Violation(path, "DelimiterInAlphabet",
                                 f"delimiter {self.delim!r} is in the alphabet"))

    def take(self, s, pos):
        idx = s.find(self.delim, pos)
        if idx < 0:
            raise ParseFailure(f"no delimited string at offset {pos}")
        return idx + 1

    @cached_property
    def _cut_rule(self):
        """The function giving a member's one piece, its body; ParseFailure
        without the final delimiter. The body itself is not checked."""
        delim = self.delim

        def cut(s):
            if not s.endswith(delim):
                raise ParseFailure(f"a string of length {len(s)} lacks the final delimiter")
            return (s[:-1],)

        return cut

    def to_json(self):
        return {**super().to_json(), "delim": self.delim}

    @classmethod
    def from_json(cls, r):
        return cls(r.get("min", int), r.get("max", int),
                   r.charset(r.get("alphabet", str), "alphabet"), r.get("delim", str))


class _Table(Node):
    """An explicit string table; the declared order is the rank order and
    duplicates are dropped. Tables have no structure to split."""

    def __post_init__(self):
        object.__setattr__(self, "strings", tuple(dict.fromkeys(self.strings)))

    def validate_into(self, path, out):
        if not self.strings:
            out.append(Violation(path, "EmptyFormat", "empty string set"))

    @property
    def size(self):
        return len(self.strings)

    @cached_property
    def chars(self):
        return frozenset("".join(self.strings))

    @cached_property
    def _index(self) -> dict:
        return {s: i for i, s in enumerate(self.strings)}

    def members(self):
        return iter(self.strings)

    def _make_ranker(self):
        return _lookup(self._index)

    def _make_unranker(self):
        return self.strings.__getitem__

    def _split(self, max_size):
        raise UnsplittableAtom(
            f"a table of {self.size} strings cannot be split below {max_size}"
        )

    def to_json(self):
        return {"type": self.kind, "strings": list(self.strings)}

    @classmethod
    def from_json(cls, r):
        return cls(r.texts("strings"))


@dataclass(frozen=True)
class DelimStringSet(_Table):
    """An explicit string table, made prefix-parsable.

    Either every string ends with `delim` (which appears nowhere else in
    it), or `prefix_free` is set and no string is a prefix of another.
    The declared order is the rank order; duplicates are dropped.
    """

    strings: tuple
    delim: str | None = None
    prefix_free: bool = False

    kind = "delim_set"
    rigid = True

    def validate_into(self, path, out):
        super().validate_into(path, out)
        if self.delim is None and not self.prefix_free:
            out.append(Violation(path, "BadParameter", "needs a delimiter or the prefix_free flag"))
        elif self.delim is not None and self.prefix_free:
            out.append(Violation(path, "BadParameter",
                                 "delimiter and prefix_free are mutually exclusive"))
        elif self.delim is not None and len(self.delim) != 1:
            out.append(Violation(path, "BadDelimiter", "delimiter must be a single character"))
        elif self.delim is not None:
            for s in self.strings:
                if not s.endswith(self.delim) or self.delim in s[:-1]:
                    out.append(Violation(
                        path, "BadDelimiter",
                        f"{s!r} must end with {self.delim!r} and contain it nowhere else",
                    ))
        else:
            for i, a in enumerate(self.strings):
                for b in self.strings[i + 1 :]:
                    if a.startswith(b) or b.startswith(a):
                        out.append(Violation(path, "NotPrefixFree",
                                             f"{a!r} and {b!r} are prefix-related"))

    def take(self, s, pos):
        if self.delim is not None:
            idx = s.find(self.delim, pos)
            if idx < 0:
                raise ParseFailure(f"no table entry at offset {pos}")
            return idx + 1
        # prefix-free: at most one entry matches, and it may be empty
        for t in self.strings:
            if s.startswith(t, pos):
                return pos + len(t)
        raise ParseFailure(f"no table entry at offset {pos}")

    def to_json(self):
        out = super().to_json()
        if self.delim is not None:
            out["delim"] = self.delim
        if self.prefix_free:
            out["prefix_free"] = True
        return out

    @classmethod
    def from_json(cls, r):
        return cls(r.texts("strings"), r.get("delim", str, None),
                   r.get("prefix_free", bool, False))


@dataclass(frozen=True)
class StringSet(_Table):
    """An explicit string table with no parsability guarantee. Non-rigid."""

    strings: tuple

    kind = "set"


@dataclass(frozen=True)
class IntegralDomain(Node):
    """Canonical decimal renderings of the integers min..max. Non-rigid."""

    min: int
    max: int

    kind = "integral"

    def validate_into(self, path, out):
        if self.min > self.max:
            out.append(Violation(path, "BadBounds", "min exceeds max"))

    @property
    def size(self):
        return self.max - self.min + 1

    @cached_property
    def chars(self):
        return frozenset(DIGITS + ("-" if self.min < 0 else ""))

    def members(self):
        return map(str, range(self.min, self.max + 1))

    def _make_ranker(self):
        lo, hi = self.min, self.max

        def rank(s):  # only the text str() gives an int is a member
            try:
                n = int(s)
            except ValueError:
                raise ParseFailure.of(s) from None
            if not lo <= n <= hi or str(n) != s:
                raise ParseFailure.of(s)
            return n - lo

        return rank

    def _make_unranker(self):
        lo = self.min
        return lambda v: str(lo + v)

    def to_json(self):
        return {"type": self.kind, "min": self.min, "max": self.max}

    @classmethod
    def from_json(cls, r):
        return cls(r.get("min", int), r.get("max", int))


@dataclass(frozen=True)
class Union(Node):
    """Strings belonging to any one of several alphabet-disjoint parts."""

    parts: tuple

    kind = "union"

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    def validate_into(self, path, out):
        if not self.parts:
            out.append(Violation(path, "EmptyFormat", "union with no parts"))
        clean = True
        for i, part in enumerate(self.parts):
            clean &= _validate(part, f"{path}.parts[{i}]", out)
        if not (self.parts and clean):
            return
        for i, a in enumerate(self.parts):
            for j in range(i + 1, len(self.parts)):
                shared = a.chars & self.parts[j].chars
                if shared:
                    sample = "".join(sorted(shared)[:5])
                    out.append(Violation(path, "OverlappingUnionAlphabets",
                                         f"parts {i} and {j} share characters {sample!r}"))
        with_empty = [i for i, p in enumerate(self.parts) if p.contains("")]
        if len(with_empty) > 1:
            out.append(Violation(path, "AmbiguousUnion",
                                 f"parts {with_empty} all contain the empty string"))

    @cached_property
    def size(self):
        return sum(p.size for p in self.parts)

    @cached_property
    def chars(self):
        return frozenset().union(*(p.chars for p in self.parts))

    @cached_property
    def _offsets(self) -> tuple:
        # rank offset of each part: the summed sizes of the parts before it
        return tuple(itertools.accumulate((p.size for p in self.parts), initial=0))

    @cached_property
    def _part_of_lead(self) -> dict:
        """The only part a member can belong to, by its first character (""
        for the empty string): validation makes part alphabets disjoint and
        lets at most one part contain ""."""
        return {c: i for i, p in enumerate(self.parts)
                for c in (p.chars | {""} if p.contains("") else p.chars)}

    route_key = operator.itemgetter(slice(None, 1))  # a member's lead character, "" for ""

    def members(self):
        return itertools.chain.from_iterable(p.members() for p in self.parts)

    def _make_ranker(self):
        lead, offsets = self._part_of_lead, self._offsets
        rankers = tuple(p.ranker for p in self.parts)

        def rank(s):
            i = lead.get(s[:1])
            if i is None:
                raise ParseFailure(f"a string of length {len(s)} starts outside every part")
            return offsets[i] + rankers[i](s)

        return rank

    def _make_unranker(self):
        offsets = self._offsets
        unrankers = tuple(p.unranker for p in self.parts)

        def unrank(v):
            i = bisect.bisect_right(offsets, v) - 1
            return unrankers[i](v - offsets[i])

        return unrank

    def _split(self, max_size):
        lead, branches = self._part_of_lead, []
        for lo, hi in splitting.greedy_groups([p.size for p in self.parts], max_size, operator.add):
            sub = self.parts[lo] if hi - lo == 1 else Union(self.parts[lo:hi])
            branches.append((tuple(c for c, i in lead.items() if lo <= i < hi), sub.plan(max_size)))
        return splitting.Route(self.route_key, "u", tuple(branches))

    def to_json(self):
        return {"type": self.kind, "parts": [p.to_json() for p in self.parts]}

    @classmethod
    def from_json(cls, r):
        return cls(r.nodes("parts"))


@dataclass(frozen=True)
class Concat(Node):
    """Concatenation of parts, optionally joined by one-character delimiters.

    Without delimiters every boundary must be separable: the left part is
    rigid, or alphabet-disjoint from each later part that can follow it
    directly (across parts that can be empty).
    """

    parts: tuple
    delims: tuple | None = None

    kind = "concat"

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if self.delims is not None:
            object.__setattr__(self, "delims", tuple(self.delims))

    def validate_into(self, path, out):
        parts, delims = self.parts, self.delims
        if not parts:
            out.append(Violation(path, "EmptyFormat", "concatenation with no parts"))
        clean = True
        for i, part in enumerate(parts):
            clean &= _validate(part, f"{path}.parts[{i}]", out)
        if delims is not None and len(delims) != len(parts) - 1:
            out.append(Violation(
                path, "BadParameter",
                f"{len(parts)} parts need {len(parts) - 1} delimiters, got {len(delims)}",
            ))
        elif delims is not None:
            for i, d in enumerate(delims):
                if len(d) != 1:
                    out.append(Violation(path, "BadDelimiter",
                                         f"delimiter {i} must be a single character"))
                elif clean and d in parts[i].chars:
                    out.append(Violation(path, "DelimiterInAlphabet",
                                         f"delimiter {d!r} appears in the alphabet of part {i}"))
        elif clean:
            for i, cur in enumerate(parts):
                if cur.rigid:
                    continue
                for j in range(i + 1, len(parts)):
                    if cur.chars & parts[j].chars:
                        out.append(Violation(
                            path, "InseparableConcat",
                            f"part {j} is not separable from part {i}: "
                            "neither rigid nor alphabet-disjoint",
                        ))
                    if not parts[j].contains(""):
                        break

    @cached_property
    def size(self):
        n = 1
        for p in self.parts:
            n *= p.size
        return n

    @cached_property
    def chars(self):
        return frozenset().union(*(p.chars for p in self.parts), self.delims or ())

    @cached_property
    def _cut_rule(self):
        """The function giving one text per part, chosen once; the texts
        themselves are not checked. With one delimiter character it splits
        on it, which gives the pieces of reading the delimiters in order;
        with no delimiters and a width for every part but the last it
        slices at fixed offsets; else it reads in order, by the delimiters,
        the rigid parts' `take` and the other parts' alphabets."""
        parts, delims = self.parts, self.delims
        last = len(parts) - 1
        if delims and len(set(delims)) == 1:
            d = delims[0]

            def cut(s):
                texts = s.split(d, last)
                if len(texts) <= last:
                    raise ParseFailure(f"missing delimiter {len(texts) - 1} "
                                       f"in a string of length {len(s)}")
                return texts

            return cut
        if not delims and all(p.width is not None for p in parts[:last]):
            if not last:
                return lambda s: (s,)
            ends = tuple(itertools.accumulate(p.width for p in parts[:last]))
            return operator.itemgetter(*map(slice, (0,) + ends, ends + (None,)))
        # per part but the last, held in place of this node: delimiter, rigid take, alphabet
        steps = tuple((delims[i] if delims else None, p.take if p.rigid else None, p.chars)
                      for i, p in enumerate(parts[:last]))

        def cut_in_order(s):
            texts, pos = [], 0
            for i, (delim, take, alpha) in enumerate(steps):
                if delim is not None:
                    end = s.find(delim, pos)
                    if end < 0:
                        raise ParseFailure(f"missing delimiter {i} after offset {pos}")
                    nxt = end + 1
                elif take is not None:
                    end = nxt = take(s, pos)
                else:
                    end = pos
                    while end < len(s) and s[end] in alpha:
                        end += 1
                    nxt = end
                texts.append(s[pos:end])
                pos = nxt
            texts.append(s[pos:])
            return texts

        return cut_in_order

    @cached_property
    def _join(self):
        """The function joining one text per part with the delimiters."""
        delims = self.delims
        if not delims:
            return "".join
        if len(set(delims)) == 1:
            return delims[0].join
        after = delims + ("",)  # the text after each part
        return lambda texts: "".join(itertools.chain.from_iterable(zip(texts, after)))

    def members(self):
        return map(self._join, _tuple_stream([p.members for p in self.parts]))

    def _make_ranker(self):
        # each part's rank function and weight, the product of the sizes before it
        weights = itertools.accumulate((p.size for p in self.parts), operator.mul, initial=1)
        steps = tuple(zip((p.ranker for p in self.parts), weights))
        cut = self._cut_rule

        def rank(s):
            total = 0
            for text, (rank_part, weight) in zip(cut(s), steps):
                total += rank_part(text) * weight
            return total

        return rank

    def _make_unranker(self):
        join = self._join
        steps = tuple((p.size, p.unranker) for p in self.parts)

        def unrank(v):
            texts = []
            for n, unrank_part in steps:
                v, r = divmod(v, n)
                texts.append(unrank_part(r))
            return join(texts)

        return unrank

    def _split(self, max_size):
        sizes = [p.size for p in self.parts]
        seams = (self.delims or ("",) * (len(sizes) - 1)) + ("",)
        groups = []
        for lo, hi in splitting.greedy_groups(sizes, max_size, operator.mul):
            if hi - lo == 1:
                sub = self.parts[lo]
            else:
                delims = self.delims[lo : hi - 1] if self.delims is not None else None
                sub = Concat(self.parts[lo:hi], delims)
            groups.append((lo, hi, sub.plan(max_size)))
        return splitting.Cut(self._cut_rule, tuple(groups), seams)

    def to_json(self):
        out = {"type": self.kind, "parts": [p.to_json() for p in self.parts]}
        if self.delims is not None:
            out["delims"] = list(self.delims)
        return out

    @classmethod
    def from_json(cls, r):
        return cls(r.nodes("parts"), r.texts("delims", None))


@dataclass(frozen=True)
class Range(Node):
    """min..max repetitions of an inner format joined by a delimiter.

    With last_delimited the final piece also carries the delimiter.
    """

    inner: object
    delim: str
    min: int
    max: int
    last_delimited: bool = True

    kind = "range"

    def validate_into(self, path, out):
        clean = _validate(self.inner, f"{path}.inner", out)
        if not 1 <= self.min <= self.max:
            out.append(Violation(path, "BadBounds", f"bad repetition bounds {self.min}..{self.max}"))
        if len(self.delim) != 1:
            out.append(Violation(path, "BadDelimiter", "delimiter must be a single character"))
        elif clean and self.delim in self.inner.chars:
            out.append(Violation(path, "DelimiterInAlphabet",
                                 f"delimiter {self.delim!r} appears in the inner alphabet"))

    @cached_property
    def _starts(self) -> tuple:
        return _count_starts(self.inner.size, self.min, self.max)

    @cached_property
    def size(self):
        return self._starts[-1]

    @cached_property
    def chars(self):
        return self.inner.chars | {self.delim}

    @cached_property
    def route_key(self):
        """The function giving the repetition count a member's branch is chosen by."""
        delim, extra = self.delim, 0 if self.last_delimited else 1
        return lambda s: s.count(delim) + extra

    @cached_property
    def _cut_rule(self):
        """The function giving the repetition texts of s, split on the
        delimiter, built once; ParseFailure without the final delimiter (if
        one is due) or min..max texts. The texts themselves are not checked."""
        delim, last, lo, hi = self.delim, self.last_delimited, self.min, self.max

        def cut(s):
            if last:
                if not s.endswith(delim):
                    raise ParseFailure(f"a string of length {len(s)} lacks the final delimiter")
                s = s[:-1]
            texts = s.split(delim)
            if not lo <= len(texts) <= hi:
                raise ParseFailure(f"{len(texts)} repetitions, expected {lo}..{hi}")
            return texts

        return cut

    def _join(self, texts) -> str:
        body = self.delim.join(texts)
        return body + self.delim if self.last_delimited else body

    def members(self):
        for k in range(self.min, self.max + 1):
            yield from map(self._join, _tuple_stream([self.inner.members] * k))

    def _make_ranker(self):
        inner, base, starts, lo = self.inner.ranker, self.inner.size, self._starts, self.min
        cut = self._cut_rule

        def rank(s):
            texts, v = cut(s), 0
            for t in reversed(texts):  # Horner's rule: repetition j weighs base**j
                v = v * base + inner(t)
            return starts[len(texts) - lo] + v

        return rank

    def _make_unranker(self):
        inner, base, starts, lo = self.inner.unranker, self.inner.size, self._starts, self.min
        delim, tail = self.delim, self.delim if self.last_delimited else ""

        def unrank(v):
            i = bisect.bisect_right(starts, v) - 1
            v -= starts[i]
            texts = []
            for _ in range(lo + i):
                v, r = divmod(v, base)
                texts.append(inner(r))
            return delim.join(texts) + tail

        return unrank

    def _split(self, max_size):
        k = self.min
        if k < self.max:
            return splitting.count_route(self, self.inner.size, max_size)
        if k == 1 and not self.last_delimited:  # the one repetition is the member
            return self.inner.plan(max_size)
        groups = []
        for lo, hi in splitting.greedy_groups([self.inner.size] * k, max_size, operator.mul):
            cnt = hi - lo
            group = self.inner if cnt == 1 else Range(self.inner, self.delim, cnt, cnt, False)
            groups.append((lo, hi, group.plan(max_size)))
        seams = (self.delim,) * (k - 1) + (self.delim if self.last_delimited else "",)
        return splitting.Cut(self._cut_rule, tuple(groups), seams)

    def to_json(self):
        out = {"type": self.kind, "inner": self.inner.to_json(), "delim": self.delim,
               "min": self.min, "max": self.max}
        if not self.last_delimited:
            out["last_delimited"] = False
        return out

    @classmethod
    def from_json(cls, r):
        return cls(r.node("inner"), r.get("delim", str), r.get("min", int), r.get("max", int),
                   r.get("last_delimited", bool, True))


NODE_TYPES = (
    Ssn,
    Ccn,
    Date,
    FixedString,
    DelimVarString,
    VarString,
    DelimStringSet,
    StringSet,
    IntegralDomain,
    Union,
    Concat,
    Range,
)


# ---------------------------------------------------------------------------
# entry points


def validate(spec) -> list:
    """Collect every invariant violation in the tree, with node paths."""
    if isinstance(spec, Node):
        return list(spec.violations)
    out: list = []
    _validate(spec, "", out)
    return out


def ensure_valid(spec) -> None:
    """Raise InvalidFormat unless the spec satisfies every invariant."""
    violations = spec.violations if isinstance(spec, Node) else validate(spec)
    if violations:
        raise InvalidFormat(violations)


def is_rigid(spec) -> bool:
    """Prefix-parsable primitives. Compound formats are treated as non-rigid."""
    return isinstance(spec, Node) and spec.rigid


def size(spec) -> int:
    """Exact member count. The spec must already be valid."""
    return spec.size


def alphabet(spec) -> frozenset:
    """Characters that can appear in members (a conservative cover)."""
    return spec.chars


def contains(spec, s: str) -> bool:
    """True iff s is a member of the format."""
    return spec.contains(s)


def enumerate_members(spec, limit: int | None = None):
    """Stream members in rank order: the i-th string yielded has rank i."""
    it = spec.members()
    if limit is not None:
        it = itertools.islice(it, limit)
    return it
