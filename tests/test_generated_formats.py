"""Random valid format trees (depth at most 3) against the soundness contract.

For every tree that validates: its members are distinct, there are size()
of them, each is accepted, and the i-th has rank i; the checked rank walk
and every bounded plan accept exactly the members; and encryption of
a small format under several slot bounds is a permutation that round-trips,
keeps each member's path through the slot plan, maps each slot by its index,
size and rank alone, and is the same whether the integer backend takes a
record's slots in one call or one slot at a time. No error for a non-member,
of these trees or of the corpus formats, repeats the string it refused.
"""

from datetime import datetime, timedelta

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from fpekit import (
    Ccn,
    CipherConfig,
    Concat,
    Date,
    DelimStringSet,
    DelimVarString,
    Fe1Backend,
    FixedString,
    IntegralDomain,
    IntFpeKey,
    Range,
    RankVector,
    Ssn,
    StringSet,
    Union,
    UnsplittableAtom,
    VarString,
    WalkRecorder,
    contains,
    cycle_walk_decrypt,
    cycle_walk_encrypt,
    decrypt,
    encrypt,
    enumerate_members,
    format_fingerprint,
    path_signature,
    rank,
    rank_multi,
    size,
    unrank,
    unrank_multi,
    validate,
)
from fpekit.errors import NotInFormat, ParseFailure
from fpekit.intfpe import slot_tweak

from corpus import ADDRESS, PREFIX_SPECS, SMALL_SPECS

LETTERS = "abcdefgh"
DELIMS = ",;|-"
ENUM_LIMIT = 1000  # formats up to this size are enumerated to the end
SETTINGS = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def charsets(pool):
    return st.sets(st.sampled_from(pool), min_size=1, max_size=3).map("".join)


def _date(days):
    return datetime(2000, 1, 1) + timedelta(days=days)


@st.composite
def leaves(draw, pool):
    kind = draw(st.sampled_from(
        ["fixed", "var", "delim_var", "set", "delim_set", "prefix_free",
         "integral", "date", "seconds", "ssn", "ccn"]
    ))
    if kind == "fixed":
        return FixedString(tuple(draw(st.lists(charsets(pool), min_size=1, max_size=2))))
    if kind in ("var", "delim_var"):
        lo = draw(st.integers(0, 2))
        hi = lo + draw(st.integers(0, 2))
        if kind == "var":
            return VarString(lo, hi, draw(charsets(pool)))
        return DelimVarString(lo, hi, draw(charsets(pool)), draw(st.sampled_from(DELIMS)))
    texts = st.lists(st.text(pool, max_size=3), min_size=1, max_size=3)
    if kind == "set":
        return StringSet(tuple(draw(texts)))
    if kind == "delim_set":
        d = draw(st.sampled_from(DELIMS))
        return DelimStringSet(tuple(t + d for t in draw(texts)), d)
    if kind == "prefix_free":
        return DelimStringSet(tuple(draw(texts)), prefix_free=True)
    if kind == "integral":
        lo = draw(st.integers(-15, 15))
        return IntegralDomain(lo, lo + draw(st.integers(0, 25)))
    if kind == "date":
        lo = draw(st.integers(0, 400))
        return Date(_date(lo), _date(lo + draw(st.integers(0, 40))))
    if kind == "seconds":
        lo = _date(draw(st.integers(0, 400))) - timedelta(seconds=draw(st.integers(0, 9)))
        return Date(lo, lo + timedelta(seconds=draw(st.integers(0, 30))), "second")
    return Ssn() if kind == "ssn" else Ccn()


def _pools(draw, pool, k):
    """Disjoint character pools for k children, or the shared one."""
    if draw(st.booleans()):
        return [pool[i::k] or pool for i in range(k)]
    return [pool] * k


@st.composite
def trees(draw, depth=3, pool=LETTERS):
    if depth == 1 or draw(st.integers(0, 3)) == 0:
        return draw(leaves(pool))
    kind = draw(st.sampled_from(["union", "concat", "range"]))
    if kind == "range":
        inner = draw(trees(depth - 1, pool))
        lo = draw(st.integers(1, 2))
        hi = lo + draw(st.integers(0, 1))
        return Range(inner, draw(st.sampled_from(DELIMS)), lo, hi, draw(st.booleans()))
    k = draw(st.integers(2, 3))
    parts = tuple(draw(trees(depth - 1, p)) for p in _pools(draw, pool, k))
    if kind == "union":
        return Union(parts)
    delims = None
    if draw(st.booleans()):
        delims = tuple(draw(st.sampled_from(DELIMS)) for _ in range(k - 1))
    return Concat(parts, delims)


valid_trees = trees().filter(lambda spec: not validate(spec))


def near_strings(spec, members):
    """Strings over the format's alphabet, and members with one edit."""
    chars = sorted(spec.chars) or ["a"]
    edits = st.tuples(st.sampled_from(members), st.integers(0, 20), st.sampled_from(chars),
                      st.sampled_from(["replace", "insert", "delete"]))

    def edit(args):
        m, pos, c, how = args
        pos = pos % (len(m) + 1)
        if how == "insert":
            return m[:pos] + c + m[pos:]
        if how == "delete":
            return m[:pos] + m[pos + 1:]
        return m[:pos] + c + m[pos + 1:]

    return st.one_of(st.text(st.sampled_from(chars), max_size=12), edits.map(edit))


@settings(max_examples=150, **SETTINGS)
@given(valid_trees)
def test_members_are_distinct_and_ranked_in_order(spec):
    n = size(spec)
    members = list(enumerate_members(spec, limit=ENUM_LIMIT + 1))
    assert len(members) == (n if n <= ENUM_LIMIT else ENUM_LIMIT + 1), spec
    members = members[:ENUM_LIMIT]
    assert len(set(members)) == len(members)
    for i, m in enumerate(members):
        assert contains(spec, m), (spec, i)
        assert rank(spec, m).value == i, (spec, i)
        assert unrank(spec, i) == m, (spec, i)


@settings(max_examples=150, **SETTINGS)
@given(valid_trees, st.data())
def test_checked_walks_accept_exactly_the_members(spec, data):
    members = list(enumerate_members(spec, limit=50))
    for _ in range(8):
        s = data.draw(near_strings(spec, members))
        member = contains(spec, s)
        try:
            r = spec.rank(s)
        except ParseFailure:
            assert not member
        else:
            assert member and unrank(spec, r) == s
        for bound in (2, 5):
            try:
                vec = rank_multi(spec, bound, s)
            except UnsplittableAtom:
                continue
            except NotInFormat as e:
                assert type(e) is NotInFormat and not member
            else:
                assert member and unrank_multi(spec, bound, vec, s) == s


KEY = IntFpeKey(bytes(range(32)))
CORPUS = SMALL_SPECS + PREFIX_SPECS + [("address", ADDRESS)]


def _refused_without_echo(spec, data):
    """Non-members near the format's first and last members are refused by
    spec.rank (ParseFailure), rank and encrypt at bounds None and 5 and
    path_signature at bound 5 (NotInFormat), with a text that holds neither
    the input, when it has four characters or more, nor any six characters
    of it in a row."""
    checks = [(ParseFailure, spec.rank), (NotInFormat, lambda s: rank(spec, s)),
              (NotInFormat, lambda s: path_signature(spec, 5, s))]
    for bound in (None, 5):
        cfg = CipherConfig(max_size=bound)
        checks.append((NotInFormat, lambda s, cfg=cfg: encrypt(cfg, KEY, spec, s)))
    n = size(spec)
    members = list(enumerate_members(spec, limit=20))
    members += [unrank(spec, r) for r in range(max(20, n - 12), n)]
    for _ in range(8):
        s = data.draw(near_strings(spec, members))
        if contains(spec, s):
            continue
        for kind, call in checks:
            try:
                call(s)
            except UnsplittableAtom:
                continue
            except NotInFormat as e:
                assert type(e) is kind, (spec, e)
                assert len(s) < 4 or s not in str(e), (spec, e)
                assert not any(s[i:i + 6] in str(e) for i in range(len(s) - 5)), (spec, e)
            else:
                raise AssertionError(f"{spec} accepted a non-member")


@settings(max_examples=60, **SETTINGS)
@given(valid_trees, st.data())
def test_no_error_echoes_its_input(spec, data):
    _refused_without_echo(spec, data)


@pytest.mark.parametrize("spec", [spec for _, spec in CORPUS], ids=[name for name, _ in CORPUS])
@settings(max_examples=4, **SETTINGS)
@given(st.data())
def test_no_error_echoes_a_corpus_input(spec, data):
    _refused_without_echo(spec, data)


@settings(max_examples=40, **SETTINGS)
@given(valid_trees)
def test_small_formats_encrypt_to_a_permutation(spec):
    assume(size(spec) <= 300)
    members = list(enumerate_members(spec))
    for bound in (None, 2, 5):
        cfg = CipherConfig(max_size=bound)
        try:
            images = [encrypt(cfg, KEY, spec, m) for m in members]
        except UnsplittableAtom:
            continue
        assert sorted(images) == sorted(members), (spec, bound)
        assert [decrypt(cfg, KEY, spec, c) for c in images] == members, (spec, bound)


@settings(max_examples=40, **SETTINGS)
@given(valid_trees)
def test_encryption_keeps_the_path_and_permutes_each_path_class(spec):
    assume(size(spec) <= 300)
    members = list(enumerate_members(spec))
    for bound in (2, 5, 17):
        cfg = CipherConfig(max_size=bound)
        try:
            images = [encrypt(cfg, KEY, spec, m) for m in members]
        except UnsplittableAtom:
            continue
        classes = {}
        for m, c in zip(members, images):
            path = path_signature(spec, bound, m)
            assert path_signature(spec, bound, c) == path, (spec, bound, m)
            ms, cs = classes.setdefault(path, ([], []))
            ms.append(m)
            cs.append(c)
        for path, (ms, cs) in classes.items():
            assert sorted(cs) == sorted(ms), (spec, bound, path)


@settings(max_examples=40, **SETTINGS)
@given(valid_trees)
def test_each_output_slot_depends_only_on_its_index_size_and_input_rank(spec):
    assume(size(spec) <= 300)
    members = list(enumerate_members(spec))
    for bound in (2, 5, 17):
        cfg = CipherConfig(max_size=bound)
        try:
            images = [encrypt(cfg, KEY, spec, m) for m in members]
        except UnsplittableAtom:
            continue
        seen = {}
        for m, c in zip(members, images):
            v, w = rank_multi(spec, bound, m), rank_multi(spec, bound, c)
            assert w.sizes == v.sizes, (spec, bound, m)
            for i, (n, r, out) in enumerate(zip(v.sizes, v.ranks, w.ranks)):
                assert seen.setdefault((i, n, r), out) == out, (spec, bound, m, i)


def _per_slot(spec, bound, text, walk, recorder) -> str:
    """text mapped one slot at a time: rank_multi, then one cycle walk a slot
    under that slot's slot_tweak, then unrank_multi."""
    fp, v = format_fingerprint(spec, bound), rank_multi(spec, bound, text)
    ranks = tuple(walk(KEY, slot_tweak(fp, i, b""), n, r, recorder=recorder)
                  for i, (r, n) in enumerate(zip(v.ranks, v.sizes)))
    return unrank_multi(spec, bound, RankVector(ranks, v.sizes), text)


def _routes_agree(spec, bound, members) -> list:
    """Encrypt and decrypt each member by the default path, an injected
    Fe1Backend (one call a record) and a per-slot rebuild from the public
    calls; all three must give the same outputs, and the two recorders the
    same events, one per slot in slot order. Returns the slot sizes seen."""
    cfg = CipherConfig(max_size=bound)
    vector, per_slot = WalkRecorder(), WalkRecorder()
    seen = []
    for m in members:
        sizes = list(rank_multi(spec, bound, m).sizes)
        c = encrypt(cfg, KEY, spec, m)
        assert encrypt(cfg, KEY, spec, m, backend=Fe1Backend(recorder=vector)) == c
        assert _per_slot(spec, bound, m, cycle_walk_encrypt, per_slot) == c
        assert decrypt(cfg, KEY, spec, c) == m
        assert decrypt(cfg, KEY, spec, c, backend=Fe1Backend(recorder=vector)) == m
        assert _per_slot(spec, bound, c, cycle_walk_decrypt, per_slot) == m
        assert [n for n, _ in vector.events] == sizes * 2, (spec, bound, m)
        assert vector.events == per_slot.events, (spec, bound, m)
        vector.events.clear()
        per_slot.events.clear()
        seen += sizes
    return seen


# the member "x" is one slot of one value under bound 2
ONE_VALUE_SLOT = Union((StringSet(("x",)), FixedString(("ab", "cd"))))


@settings(max_examples=40, **SETTINGS)
@given(valid_trees)
@example(ONE_VALUE_SLOT)
def test_one_call_per_record_and_one_call_per_slot_agree(spec):
    assume(size(spec) <= 300)
    members = list(enumerate_members(spec))
    for bound in (2, 5, 17):
        try:
            _routes_agree(spec, bound, members)
        except UnsplittableAtom:
            continue


def test_the_routes_agree_on_a_one_value_slot_and_on_address_records():
    assert 1 in _routes_agree(ONE_VALUE_SLOT, 2, list(enumerate_members(ONE_VALUE_SLOT)))
    records = [unrank(ADDRESS, (ADDRESS.size // 23) * k) for k in range(1, 21)]
    assert len(_routes_agree(ADDRESS, 2**16, records)) == 20 * 39
