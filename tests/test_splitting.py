"""Slot plans: bounded domains, exhaustive round trips, path signatures."""

import tracemalloc
from datetime import datetime
from operator import mul

import pytest

from fpekit import (
    BadParameter,
    Ccn,
    CipherConfig,
    Concat,
    Date,
    DelimStringSet,
    DelimVarString,
    ExampleFormatMismatch,
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
    VectorShapeMismatch,
    build_plan,
    contains,
    decrypt,
    encrypt,
    enumerate_members,
    path_signature,
    rank,
    rank_multi,
    size,
    unrank,
    unrank_multi,
)
from fpekit.errors import NotInFormat
from fpekit.formats import ssn_components
from fpekit.splitting import (
    RadixBlocks,
    Route,
    WholeSlot,
    greedy_groups,
)

from corpus import ADDRESS, SMALL_SPECS, address_format

DIGITS = "0123456789"
BOUNDS = (2, 3, 7, 10, 64)

# table-backed formats cannot split, so they sit out the tight-bound sweeps
UNSPLITTABLE_OVER = {
    name: size(spec)
    for name, spec in SMALL_SPECS
    if isinstance(spec, (StringSet, DelimStringSet))
}


def test_greedy_grouping():
    assert greedy_groups([2, 2, 2, 2], 8, mul) == [(0, 3), (3, 4)]
    assert greedy_groups([5, 100, 5], 30, mul) == [(0, 1), (1, 2), (2, 3)]
    assert greedy_groups([2, 2], 100, mul) == [(0, 2)]


def test_whole_slot_when_it_fits():
    spec = FixedString(("ab", "01"))
    assert isinstance(build_plan(spec, 4), WholeSlot)
    assert isinstance(build_plan(spec, None), WholeSlot)
    assert isinstance(build_plan(Ssn(), None), WholeSlot)


def test_bound_must_be_sane():
    with pytest.raises(BadParameter):
        build_plan(FixedString(("ab",)), 1)


def test_tables_cannot_split():
    with pytest.raises(UnsplittableAtom):
        build_plan(StringSet(("a", "b", "c")), 2)
    with pytest.raises(UnsplittableAtom):
        build_plan(DelimStringSet(("a|", "b|", "c|"), "|"), 2)


# ---------------------------------------------------------------------------
# exhaustive slot round trips


def test_exhaustive_split_round_trips():
    for name, spec in SMALL_SPECS:
        for bound in BOUNDS:
            if UNSPLITTABLE_OVER.get(name, 0) > bound:
                continue
            for s in enumerate_members(spec, limit=400):
                vec = rank_multi(spec, bound, s)
                assert all(n <= bound for n in vec.sizes), (name, bound, s)
                assert unrank_multi(spec, bound, vec, s) == s, (name, bound, s)


def test_member_determines_signature_and_vector():
    for name, spec in SMALL_SPECS:
        if UNSPLITTABLE_OVER.get(name, 0) > 7:
            continue
        seen = {}
        for s in enumerate_members(spec, limit=400):
            vec = rank_multi(spec, 7, s)
            key = (path_signature(spec, 7, s), vec.ranks, vec.sizes)
            assert seen.setdefault(key, s) == s, (name, s, seen[key])


def test_unbounded_plan_is_plain_ranking():
    for name, spec in SMALL_SPECS[:8]:
        for s in enumerate_members(spec, limit=50):
            vec = rank_multi(spec, None, s)
            assert len(vec) == 1
            assert vec.ranks[0] == rank(spec, s).value
            assert vec.sizes[0] == size(spec)


def test_slot_surgery_stays_in_format(rng):
    """Replacing slot ranks under the same example yields another member."""
    for name, spec in SMALL_SPECS:
        if UNSPLITTABLE_OVER.get(name, 0) > 7:
            continue
        members = list(enumerate_members(spec, limit=120))
        for s in members[:: max(1, len(members) // 8)]:
            vec = rank_multi(spec, 7, s)
            new_ranks = tuple(rng.randrange(n) for n in vec.sizes)
            rebuilt = unrank_multi(spec, 7, RankVector(new_ranks, vec.sizes), s)
            assert contains(spec, rebuilt), (name, s, rebuilt)
            assert rank_multi(spec, 7, rebuilt).ranks == new_ranks, (name, s)


# ---------------------------------------------------------------------------
# vector shape checks


def test_rank_vector_validation():
    with pytest.raises(VectorShapeMismatch):
        RankVector((0, 1), (2,))
    with pytest.raises(VectorShapeMismatch):
        RankVector((2,), (2,))
    with pytest.raises(VectorShapeMismatch):
        RankVector((-1,), (2,))


def test_rank_vector_error_gives_the_bit_length_not_the_rank():
    with pytest.raises(VectorShapeMismatch) as e:
        RankVector((1, 987654321), (2, 1000))
    assert "987654321" not in str(e.value)
    assert "slot 1" in str(e.value) and "30-bit" in str(e.value) and "1000" in str(e.value)


def test_vector_must_match_plan():
    spec = FixedString(("ab", "01", "xy"))
    s = "a0x"
    vec = rank_multi(spec, 2, s)
    assert vec.sizes == (2, 2, 2)
    with pytest.raises(VectorShapeMismatch):
        unrank_multi(spec, 2, RankVector(vec.ranks[:2], vec.sizes[:2]), s)
    with pytest.raises(VectorShapeMismatch):
        unrank_multi(spec, 2, RankVector(vec.ranks + (0,), vec.sizes + (2,)), s)
    with pytest.raises(VectorShapeMismatch):
        unrank_multi(spec, 2, RankVector((0, 0, 0), (2, 2, 3)), s)


@pytest.mark.parametrize("bound", [None, 2, 2**16])
@pytest.mark.parametrize(
    "record",
    [
        "Elm Street,Dov3r,42,12345,France",  # a digit inside a town word
        "Aa Bb Cc Dd Ee,Town,42,12345,France",  # five street words, at most four
        "Elm  Street,Town,42,12345,France",  # an empty street word
    ],
)
def test_deep_non_members_are_rejected(bound, record):
    assert contains(ADDRESS, "Elm Street,Dover,42,12345,France")
    cfg = CipherConfig(max_size=bound)
    key = IntFpeKey(bytes(32))
    for call in (
        lambda: rank_multi(ADDRESS, bound, record),
        lambda: path_signature(ADDRESS, bound, record),
        lambda: encrypt(cfg, key, ADDRESS, record),
        lambda: decrypt(cfg, key, ADDRESS, record),
    ):
        with pytest.raises(NotInFormat):
            call()


# ---------------------------------------------------------------------------
# one rank walk per input: the template, not a second walk, spells the output

RECORD = "Elm Street Ave,Dover,42,12345,France"


@pytest.fixture
def cuts(monkeypatch):
    """A one-item list counting the calls to the cut functions that Concat
    and Range nodes build from here on, and a new address tree to build them."""
    count = [0]
    for cls in (Concat, Range):
        rule = vars(cls)["_cut_rule"]  # the cached property; its func builds the cut

        def counting(node, build=rule.func):
            cut = build(node)

            def counted(s):
                count[0] += 1
                return cut(s)

            return counted

        monkeypatch.setattr(rule, "func", counting)
    return count, address_format()


def test_unrank_multi_walks_its_example_once(cuts):
    count, address = cuts
    for bound in (None, 2**16):
        count[0] = 0
        vec = rank_multi(address, bound, RECORD)
        ranked = count[0]
        count[0] = 0
        assert unrank_multi(address, bound, vec, RECORD) == RECORD
        assert ranked > 0 and count[0] == ranked, bound


def test_encrypt_and_decrypt_cut_each_input_once(cuts):
    count, address = cuts
    cfg = CipherConfig(max_size=2**16)
    key = IntFpeKey(bytes(32))
    rank_multi(address, cfg.max_size, RECORD)
    ranked = count[0]
    count[0] = 0
    c = encrypt(cfg, key, address, RECORD)
    assert count[0] == ranked
    count[0] = 0
    assert decrypt(cfg, key, address, c) == RECORD
    assert count[0] == ranked


@pytest.mark.parametrize("bound, cuts_per_walk", [(2**16, 7), (5, 7), (None, 9)])
def test_every_walk_of_the_record_makes_its_pinned_number_of_cuts(cuts, bound, cuts_per_walk):
    # one cut each: unbounded, the root, the three word ranges and the five
    # words; under these bounds, the root, one word range and the five words.
    # Decrypt walks the ciphertext, whose path is the record's under a bound;
    # path_signature is one identity walk, with no membership check before it.
    count, address = cuts
    cfg, key = CipherConfig(max_size=bound), IntFpeKey(bytes(32))
    vec, c = rank_multi(address, bound, RECORD), encrypt(cfg, key, address, RECORD)
    walks = [lambda: rank_multi(address, bound, RECORD),
             lambda: unrank_multi(address, bound, vec, RECORD),
             lambda: encrypt(cfg, key, address, RECORD),
             lambda: path_signature(address, bound, RECORD)]
    if bound is not None:
        walks.append(lambda: decrypt(cfg, key, address, c))
    counts = []
    for walk in walks:
        count[0] = 0
        walk()
        counts.append(count[0])
    assert counts == [cuts_per_walk] * len(walks)


def test_example_must_be_a_member():
    spec = FixedString(("ab",))
    with pytest.raises(ExampleFormatMismatch):
        unrank_multi(spec, None, RankVector((0,), (2,)), "z")
    with pytest.raises(NotInFormat):
        rank_multi(spec, None, "z")


# ---------------------------------------------------------------------------
# plan shapes for the wide primitives


def test_ssn_plan_shapes():
    plan = build_plan(Ssn(), 10**4)
    assert isinstance(plan, RadixBlocks)
    assert plan.blocks == ((0, 1, None), (1, 2, None), (2, 3, None))

    plan = build_plan(Ssn(), 10**6)
    assert plan.blocks == ((0, 2, None), (2, 3, None))

    plan = build_plan(Ssn(), 100)
    assert plan.blocks == ((0, 1, 100), (1, 2, None), (2, 3, 100))


def test_ssn_components_compose_to_the_closed_form_rank(rng):
    # slots at the full component bound line up with plain ranking,
    # where the serial varies fastest and the area slowest
    for _ in range(200):
        s = unrank(Ssn(), rng.randrange(size(Ssn())))
        vec = rank_multi(Ssn(), 10**4, s)
        assert vec.sizes == (898, 99, 9999)
        a, g, r = vec.ranks
        assert rank(Ssn(), s).value == r + g * 9999 + a * 9999 * 99
        # inside a block of several components the leftmost is least
        # significant, and a windowed component keeps its window in the path
        a, g, serial = ssn_components(s)
        assert rank_multi(Ssn(), 10**6, s).ranks == (a + 898 * g, serial)
        assert rank_multi(Ssn(), 100, s).ranks == (a % 100, g, serial % 100)
        assert path_signature(Ssn(), 100, s) == (("w", a // 100), ("w", serial // 100))


@pytest.mark.parametrize("make, member, bound", [
    pytest.param(Ssn, "123456789", 10**4, id="10000"),
    pytest.param(Ssn, "123456789", 10**6, id="1000000"),
    # one position spelled by a range of the whole rank space
    pytest.param(lambda: IntegralDomain(0, 10**18), "123456789", 10**6, id="integral"),
    pytest.param(lambda: Date(datetime(1900, 1, 1), datetime(2000, 1, 1), "second"),
                 "02.03.1950 04:05:06", 10**6, id="date_seconds"),
])
def test_a_split_ssn_holds_no_table_per_serial(make, member, bound):
    spec = make()  # a fresh node, so its plan and walk are built below
    tracemalloc.start()
    try:
        rank_multi(spec, bound, member)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 100_000, held


def test_ssn_split_round_trip(rng):
    for bound in (50, 898, 10**4, 10**6):
        for _ in range(60):
            s = unrank(Ssn(), rng.randrange(size(Ssn())))
            vec = rank_multi(Ssn(), bound, s)
            assert all(n <= bound for n in vec.sizes)
            assert unrank_multi(Ssn(), bound, vec, s) == s
            new_ranks = tuple(rng.randrange(n) for n in vec.sizes)
            rebuilt = unrank_multi(Ssn(), bound, RankVector(new_ranks, vec.sizes), s)
            assert contains(Ssn(), rebuilt), (bound, s, rebuilt)


def test_ccn_plan_shape_and_round_trip(rng):
    plan = build_plan(Ccn(), 10**6)
    assert isinstance(plan, RadixBlocks)
    assert [(lo, hi) for lo, hi, _ in plan.blocks] == [(0, 6), (6, 12), (12, 15)]
    for _ in range(100):
        s = unrank(Ccn(), rng.randrange(10**15))
        vec = rank_multi(Ccn(), 10**6, s)
        assert vec.sizes == (10**6, 10**6, 10**3)
        # a payload block ranks as the number its digits spell
        assert vec.ranks == (int(s[0:6]), int(s[6:12]), int(s[12:15]))
        assert unrank_multi(Ccn(), 10**6, vec, s) == s
        new_ranks = tuple(rng.randrange(n) for n in vec.sizes)
        rebuilt = unrank_multi(Ccn(), 10**6, RankVector(new_ranks, vec.sizes), s)
        assert contains(Ccn(), rebuilt), (s, rebuilt)


def test_date_splits_into_rank_windows():
    spec = Date(datetime(2000, 1, 1), datetime(2000, 4, 9))
    plan = build_plan(spec, 7)
    assert isinstance(plan, RadixBlocks)
    sizes = set()
    for s in enumerate_members(spec):
        vec = rank_multi(spec, 7, s)
        sizes.add(vec.sizes[0])
        assert unrank_multi(spec, 7, vec, s) == s
    assert sizes == {7, 100 - 14 * 7}


def test_an_integer_range_past_sys_maxsize_splits_into_rank_windows():
    spec = IntegralDomain(-10**25, 10**30)  # too wide for len() of a range
    s = "123456789012345678901234567"
    r, bound = rank(spec, s).value, 2**64
    vec = rank_multi(spec, bound, s)
    assert vec.ranks == (r % bound,) and vec.sizes == (bound,)
    assert path_signature(spec, bound, s) == (("w", r // bound),)
    assert unrank_multi(spec, bound, vec, s) == s


def test_fixed_string_splits_positionally():
    spec = FixedString((DIGITS,) * 6)
    plan = build_plan(spec, 10**2)
    assert isinstance(plan, RadixBlocks)
    assert [(lo, hi) for lo, hi, _ in plan.blocks] == [(0, 2), (2, 4), (4, 6)]
    vec = rank_multi(spec, 10**2, "123456")
    assert vec.sizes == (100, 100, 100)
    # each block ranks its slice with the leftmost digit least significant
    assert vec.ranks == (21, 43, 65)


def test_var_string_bands_split_by_length():
    spec = VarString(1, 40, "ab")
    plan = build_plan(spec, 2**10)
    assert isinstance(plan, Route) and plan.tag == "len"
    s = "ab" * 12
    vec = rank_multi(spec, 2**10, s)
    assert all(n <= 2**10 for n in vec.sizes)
    assert unrank_multi(spec, 2**10, vec, s) == s


def test_union_and_concat_plans_nest():
    spec = Concat(
        (Union((FixedString(("ab",) * 8), FixedString(("01",) * 8))), VarString(1, 9, "xy")),
    )
    for bound in (16, 256):
        for s in ("abababab" + "xyx", "01010101" + "y"):
            vec = rank_multi(spec, bound, s)
            assert all(n <= bound for n in vec.sizes)
            assert unrank_multi(spec, bound, vec, s) == s


LOWER = "abcdefghijklmnopqrstuvwxyz"
ALNUM = DIGITS + LOWER + LOWER.upper()


@pytest.mark.parametrize("last_delimited", [True, False])
@pytest.mark.parametrize("bound", [5, 9])
def test_one_repetition_groups_keep_their_delimiters(bound, last_delimited):
    # no two repetitions of 9 values fit one slot, so each is a group of its
    # own: a whole slot at bound 9, two character blocks at bound 5
    spec = Range(FixedString(("abc", "xyz")), ";", 3, 3, last_delimited)
    assert [(lo, hi) for lo, hi, _ in build_plan(spec, bound).groups] == [(0, 1), (1, 2), (2, 3)]
    cfg, key = CipherConfig(max_size=bound), IntFpeKey(bytes(32))
    members = list(enumerate_members(spec))
    images = [encrypt(cfg, key, spec, s) for s in members]
    assert sorted(images) == sorted(members)
    for s, c in zip(members, images):
        assert unrank_multi(spec, bound, rank_multi(spec, bound, s), s) == s
        assert c.count(";") == s.count(";") and c.endswith(";") == last_delimited
        assert decrypt(cfg, key, spec, c) == s


def test_a_group_of_several_parts_keeps_the_delimiters_between_them():
    # 2 * 7 * 10 values fit one slot of 200, so the first three parts and
    # both kinds of delimiter between them form one group
    spec = Concat((FixedString(("ab",)), VarString(0, 2, "xy"), IntegralDomain(0, 9),
                   FixedString(("cd", "ef"))), ("-", "/", "-"))
    assert [(lo, hi) for lo, hi, _ in build_plan(spec, 200).groups] == [(0, 3), (3, 4)]
    cfg, key = CipherConfig(max_size=200), IntFpeKey(bytes(32))
    members = list(enumerate_members(spec))
    images = [encrypt(cfg, key, spec, s) for s in members]
    assert sorted(images) == sorted(members)
    for s, c in zip(members, images):
        assert unrank_multi(spec, 200, rank_multi(spec, 200, s), s) == s
        assert decrypt(cfg, key, spec, c) == s


def test_an_oversized_position_is_cut_into_the_rank_windows_it_has_alone():
    spec, one = FixedString((ALNUM, ALNUM)), FixedString((ALNUM,))
    plan = build_plan(spec, 50)
    assert isinstance(plan, RadixBlocks) and plan.blocks == ((0, 1, 50), (1, 2, 50))
    assert isinstance(build_plan(one, 50), RadixBlocks)
    members = list(enumerate_members(spec))
    for s in members:
        alone = [rank_multi(one, 50, c) for c in s]
        vec = rank_multi(spec, 50, s)
        assert vec == RankVector(sum((v.ranks for v in alone), ()), sum((v.sizes for v in alone), ()))
        assert path_signature(spec, 50, s) == sum((path_signature(one, 50, c) for c in s), ())
        assert unrank_multi(spec, 50, vec, s) == s
    cfg, key = CipherConfig(max_size=50), IntFpeKey(bytes(32))
    images = [encrypt(cfg, key, spec, s) for s in members]
    assert sorted(images) == sorted(members)
    assert [decrypt(cfg, key, spec, c) for c in images] == members


@pytest.mark.parametrize(
    "spec, bound, member",
    [
        (VarString(2, 9, "ab"), 2**5, lambda k: "b" * k),
        (DelimVarString(2, 9, "ab", ";"), 2**5, lambda k: "b" * k + ";"),
        (Range(FixedString(("ab",)), ",", 2, 7, False), 8, lambda k: ",".join("b" * k)),
        (Range(FixedString(("ab",)), ",", 2, 7, True), 8, lambda k: "b," * k),
        # parts of 4, 4, 4 and 6 members route by lead character in 3 branches at 8
        (Union((FixedString(("ab", "ab")), FixedString(("cd", "cd")), FixedString(("ef", "ef")),
                VarString(1, 2, "gh"))), 8, lambda c: c * 2),
    ],
)
def test_band_edges_round_trip_and_lengths_past_the_bands_are_refused(spec, bound, member):
    # a union routes by lead character, the others by length or count
    tag, past = (("u", ("z", "")) if isinstance(spec, Union)
                 else ("len", (spec.min - 1, spec.max + 1)))
    plan = build_plan(spec, bound)
    assert isinstance(plan, Route) and plan.tag == tag and len(plan.branches) > 2
    cfg, key = CipherConfig(max_size=bound), IntFpeKey(bytes(32))
    for bi, (keys, _) in enumerate(plan.branches):
        for k in (keys[0], keys[-1]):
            s = member(k)
            assert path_signature(spec, bound, s)[0] == (tag, bi)
            assert unrank_multi(spec, bound, rank_multi(spec, bound, s), s) == s
            c = encrypt(cfg, key, spec, s)
            assert path_signature(spec, bound, c)[0] == (tag, bi)
            assert decrypt(cfg, key, spec, c) == s
    for k in past:
        for call in (rank_multi, lambda spec, bound, s: encrypt(cfg, key, spec, s)):
            with pytest.raises(NotInFormat):
                call(spec, bound, member(k))


# ---------------------------------------------------------------------------
# path signatures


def test_signature_separates_union_branches():
    spec = Union((FixedString(("ab",)), FixedString(("01",))))
    assert path_signature(spec, 2, "a") == path_signature(spec, 2, "b")
    assert path_signature(spec, 2, "a") != path_signature(spec, 2, "0")


def test_signature_separates_length_bands():
    spec = VarString(1, 40, "ab")
    sig = lambda s: path_signature(spec, 2**10, s)  # noqa: E731
    assert sig("a" * 3) == sig("b" * 3)
    assert sig("a" * 3) != sig("a" * 30)


def test_signature_tracks_rank_windows():
    spec = IntegralDomain(0, 99)
    assert path_signature(spec, 10, "42") == (("w", 4),)
    assert path_signature(spec, 10, "47") == (("w", 4),)
    assert path_signature(spec, 10, "52") == (("w", 5),)


def test_signature_empty_for_whole_slot():
    assert path_signature(FixedString(("ab",)), None, "a") == ()


def test_signatures_keep_adjacent_groups_apart():
    # two adjacent groups must not be confusable with one wider group
    spec = Concat((VarString(1, 2, "ab"), VarString(1, 2, "01")))
    sig = path_signature(spec, 2, "ab01")
    assert isinstance(sig, tuple)
    assert all(isinstance(t, tuple) for t in sig)
    assert path_signature(spec, 2, "ab01") != path_signature(spec, 2, "a01")
