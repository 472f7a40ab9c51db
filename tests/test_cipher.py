"""Whole-string encryption: permutation property, config knobs, tweaks."""

import dataclasses
import gc
import weakref

import pytest

from fpekit import (
    BadParameter,
    CipherConfig,
    Concat,
    DelimStringSet,
    Fe1Backend,
    FixedString,
    IntFpeKey,
    NotInFormat,
    Ssn,
    Union,
    UnsplittableAtom,
    VarString,
    WalkBudgetExceeded,
    WalkRecorder,
    balanced_factor,
    build_plan,
    contains,
    decrypt,
    encrypt,
    enumerate_members,
    format_fingerprint,
    keygen,
    path_signature,
    rank_multi,
    size,
    unrank,
    validate,
)
from fpekit import dsl
from fpekit.formats import NODE_TYPES
from fpekit.splitting import _Plan

from corpus import PREFIX_SPECS, SMALL_SPECS, address_format

DIGITS = "0123456789"

KEY_A = IntFpeKey(bytes(range(32)))
KEY_B = IntFpeKey(bytes(range(1, 33)))

SMALL = Union((FixedString(("abc", "01")), VarString(1, 2, "xy")))


def test_encrypt_is_a_permutation_of_the_format():
    cfg = CipherConfig()
    members = list(enumerate_members(SMALL))
    for key in (KEY_A, KEY_B):
        images = [encrypt(cfg, key, SMALL, m) for m in members]
        assert sorted(images) == sorted(members)
        for m, c in zip(members, images):
            assert contains(SMALL, c)
            assert decrypt(cfg, key, SMALL, c) == m


def test_empty_prefix_free_entry_is_a_member_piece():
    # a prefix-free table whose only entry is "" consumes nothing
    spec = Concat((DelimStringSet(("",), prefix_free=True), FixedString(("ab",))))
    assert validate(spec) == []
    assert size(spec) == 2
    members = list(enumerate_members(spec))
    assert all(contains(spec, m) for m in members)
    images = [encrypt(CipherConfig(), KEY_A, spec, m) for m in members]
    assert sorted(images) == members
    assert [decrypt(CipherConfig(), KEY_A, spec, c) for c in images] == members


def test_formats_are_not_kept_alive_after_use():
    spec = Concat((FixedString(("AB",)), VarString(1, 3, "abc")))
    for bound in (None, 3):
        c = encrypt(CipherConfig(max_size=bound), KEY_A, spec, "Aab")
        assert decrypt(CipherConfig(max_size=bound), KEY_A, spec, c) == "Aab"
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def _freed_without_the_collector(spec, bound, member):
    """Encrypt, decrypt and path-sign a member with the cyclic collector off,
    drop the format, and give (whether it was freed at once, what a
    collection then finds). None when the format cannot be split that fine."""
    gc.collect()
    gc.disable()
    try:
        cfg = CipherConfig(max_size=bound)
        try:
            c = encrypt(cfg, KEY_A, spec, member)
        except UnsplittableAtom:
            return None
        assert decrypt(cfg, KEY_A, spec, c) == member
        assert path_signature(spec, bound, c) == path_signature(spec, bound, member)
        ref = weakref.ref(spec)
        del spec
        return ref() is None, gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("bound", [None, 5, 2**16])
def test_a_dropped_format_is_freed_by_reference_counting(bound):
    # a format, its plans and everything derived from either make no cycle
    checked = 0
    for name, corpus_spec in SMALL_SPECS + PREFIX_SPECS + [("address", address_format())]:
        member = unrank(corpus_spec, size(corpus_spec) // 3)
        # a fresh tree, which only the helper holds
        outcome = _freed_without_the_collector(
            dsl.parse_spec(dsl.serialize_spec(corpus_spec)), bound, member)
        if outcome is not None:
            assert outcome == (True, 0), name
            checked += 1
    assert checked >= 40


def test_fingerprint_is_computed_once_per_format_and_bound(monkeypatch):
    serialized = 0
    real = dsl.serialize_spec

    def counting(spec):
        nonlocal serialized
        serialized += 1
        return real(spec)

    monkeypatch.setattr(dsl, "serialize_spec", counting)
    spec = Concat((FixedString(("AB",)), VarString(1, 3, "abc")))
    for bound in (None, 3):
        cfg = CipherConfig(max_size=bound)
        for _ in range(50):
            assert decrypt(cfg, KEY_A, spec, encrypt(cfg, KEY_A, spec, "Aab")) == "Aab"
    assert serialized == 2
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def _tree(spec):
    """The nodes of a format tree, each parent before its children."""
    yield spec
    for child in getattr(spec, "parts", None) or (getattr(spec, "inner", None),):
        if child is not None:
            yield from _tree(child)


def test_rank_functions_are_built_once_per_node(monkeypatch):
    built = {}  # (id, builder) -> [node, count]; holding the node keeps its id unique
    for cls in NODE_TYPES:
        for name in ("_make_ranker", "_make_unranker"):
            def counting(self, real=getattr(cls, name), name=name):
                built.setdefault((id(self), name), [self, 0])[1] += 1
                return real(self)

            monkeypatch.setattr(cls, name, counting)
    spec = address_format()
    record = "Elm Street Ave,Dover,42,12345,France"
    for bound in (None, 2**16):
        cfg = CipherConfig(max_size=bound)
        for _ in range(50):
            assert decrypt(cfg, KEY_A, spec, encrypt(cfg, KEY_A, spec, record)) == record
    assert {count for _, count in built.values()} == {1}
    for node in _tree(spec):
        assert (id(node), "_make_ranker") in built and (id(node), "_make_unranker") in built
    built.clear()
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def test_walk_functions_are_built_once_per_plan_node(monkeypatch):
    built = {}  # id -> [plan node, count]; holding the node keeps its id unique
    plan_types = _Plan.__subclasses__()
    for cls in plan_types:
        def counting(self, real=cls._make_crypt):
            built.setdefault(id(self), [self, 0])[1] += 1
            return real(self)

        monkeypatch.setattr(cls, "_make_crypt", counting)
    spec = address_format()
    record = "Elm Street Ave,Dover,42,12345,France"
    cfg = CipherConfig(max_size=2**16)
    for _ in range(50):
        c = encrypt(cfg, KEY_A, spec, record)
        assert decrypt(cfg, KEY_A, spec, c) == record
        assert path_signature(spec, cfg.max_size, c) == path_signature(spec, cfg.max_size, record)
    cfg = CipherConfig(max_size=5)
    for name, corpus_spec in SMALL_SPECS + PREFIX_SPECS:
        fresh = dsl.parse_spec(dsl.serialize_spec(corpus_spec))  # plans no test has walked
        n = size(fresh)
        members = [unrank(fresh, r) for r in {0, n // 3, n - 1}]
        for _ in range(2):
            for m in members:
                try:
                    c = encrypt(cfg, KEY_A, fresh, m)
                except UnsplittableAtom:
                    break
                assert decrypt(cfg, KEY_A, fresh, c) == m, name
                assert path_signature(fresh, 5, c) == path_signature(fresh, 5, m), name
    assert {count for _, count in built.values()} == {1}
    assert {type(node) for node, _ in built.values()} == set(plan_types)
    built.clear()
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def test_determinism_and_key_separation():
    cfg = CipherConfig()
    members = list(enumerate_members(SMALL))
    first = [encrypt(cfg, KEY_A, SMALL, m) for m in members]
    again = [encrypt(cfg, KEY_A, SMALL, m) for m in members]
    other = [encrypt(cfg, KEY_B, SMALL, m) for m in members]
    assert first == again
    assert first != other


def test_tweak_separates_and_str_equals_utf8_bytes():
    cfg = CipherConfig()
    members = list(enumerate_members(SMALL))
    plain = [encrypt(cfg, KEY_A, SMALL, m) for m in members]
    tagged = [encrypt(cfg, KEY_A, SMALL, m, tweak=b"col") for m in members]
    assert plain != tagged
    for m in members:
        assert encrypt(cfg, KEY_A, SMALL, m, tweak="col") == encrypt(
            cfg, KEY_A, SMALL, m, tweak=b"col"
        )
        assert decrypt(cfg, KEY_A, SMALL, encrypt(cfg, KEY_A, SMALL, m, tweak=b"col"), tweak=b"col") == m


def test_a_tweak_neither_text_nor_bytes_is_a_bad_parameter_naming_its_type():
    cfg, m = CipherConfig(), next(iter(enumerate_members(SMALL)))
    c = encrypt(cfg, KEY_A, SMALL, m, tweak=b"\x01\x02")
    assert encrypt(cfg, KEY_A, SMALL, m, tweak=bytearray(b"\x01\x02")) == c
    assert encrypt(cfg, KEY_A, SMALL, m, tweak=memoryview(b"\x01\x02")) == c
    # bytes() would read 3 as three zero bytes and [1, 2] as b"\x01\x02"
    for tweak in (3, [1, 2], None, 2.5, (1, 2)):
        for crypt in (encrypt, decrypt):
            with pytest.raises(BadParameter) as e:
                crypt(cfg, KEY_A, SMALL, m, tweak=tweak)
            assert str(e.value) == f"tweak must be text or bytes, not {type(tweak).__name__}"


def test_round_count_changes_the_mapping():
    members, six = list(enumerate_members(SMALL)), IntFpeKey(KEY_A.secret, rounds=6)
    base = [encrypt(CipherConfig(), KEY_A, SMALL, m) for m in members]
    short = [encrypt(CipherConfig(), six, SMALL, m) for m in members]
    assert base != short
    for m in members:
        c = encrypt(CipherConfig(), six, SMALL, m)
        assert decrypt(CipherConfig(), six, SMALL, c) == m


def test_the_round_count_is_the_keys_alone():
    # a default config once overrode an 8-round key with its own 12 rounds,
    # giving "hmkrbmaqg"
    spec, key = VarString(1, 9, "abcdefghijklmnopqrstuvwxyz"), IntFpeKey(bytes(32), rounds=8)
    assert encrypt(CipherConfig(), key, spec, "hello") == "bfpzoekjk"
    assert decrypt(CipherConfig(), key, spec, "bfpzoekjk") == "hello"
    with pytest.raises(TypeError):
        CipherConfig(rounds=8)
    assert {f.name for f in dataclasses.fields(CipherConfig)} == {"max_size", "walk_budget"}


def test_slot_bound_changes_the_mapping_but_not_the_format():
    spec = FixedString((DIGITS,) * 4)
    whole = CipherConfig()
    split = CipherConfig(max_size=100)
    members = [f"{i:04d}" for i in (0, 7, 1234, 9999, 4242)]
    w = [encrypt(whole, KEY_A, spec, m) for m in members]
    s = [encrypt(split, KEY_A, spec, m) for m in members]
    assert w != s
    for m, c in zip(members, s):
        assert contains(spec, c)
        assert decrypt(split, KEY_A, spec, c) == m


def test_fingerprint_binds_format_and_bound():
    spec = FixedString((DIGITS,) * 4)
    other = FixedString((DIGITS,) * 5)
    assert format_fingerprint(spec, None) != format_fingerprint(spec, 100)
    assert format_fingerprint(spec, None) != format_fingerprint(other, None)
    assert len(format_fingerprint(spec, None)) == 32
    assert format_fingerprint(spec, 100) == format_fingerprint(FixedString((DIGITS,) * 4), 100)


def test_a_backend_other_than_fe1backend_is_a_bad_parameter_naming_its_type():
    class PerSlot:
        def encrypt(self, key, tweak, n, x):
            return x

        decrypt = encrypt

    for backend in (PerSlot(), Fe1Backend, "fe1"):
        for crypt in (encrypt, decrypt):
            with pytest.raises(BadParameter) as e:
                crypt(CipherConfig(), KEY_A, SMALL, "xy", backend=backend)
            assert str(e.value) == (
                f"backend must be an Fe1Backend or None, not {type(backend).__name__}")


def test_injected_backend_sees_only_bounded_domains():
    spec = FixedString((DIGITS,) * 4)
    rec = WalkRecorder()
    cfg = CipherConfig(max_size=100)
    c = encrypt(cfg, KEY_A, spec, "4242", backend=Fe1Backend(recorder=rec))
    assert contains(spec, c)
    assert len(rec.events) == 2
    assert all(domain <= 100 for domain, _ in rec.events)


def test_split_ssn_round_trip(rng):
    cfg = CipherConfig(max_size=10**4)
    for _ in range(25):
        m = unrank(Ssn(), rng.randrange(size(Ssn())))
        c = encrypt(cfg, KEY_A, Ssn(), m)
        assert contains(Ssn(), c)
        assert decrypt(cfg, KEY_A, Ssn(), c) == m


def test_compound_round_trip_under_every_bound(rng):
    spec = Concat((FixedString(("AB",)), VarString(1, 3, "abc"), FixedString((DIGITS,))))
    members = list(enumerate_members(spec))
    sample = [members[rng.randrange(len(members))] for _ in range(30)]
    for bound in (3, 26, None):
        cfg, key = CipherConfig(max_size=bound), IntFpeKey(KEY_A.secret, rounds=8)
        for m in sample:
            c = encrypt(cfg, key, spec, m)
            assert contains(spec, c)
            assert decrypt(cfg, key, spec, c) == m


def test_rejects_non_members():
    with pytest.raises(NotInFormat):
        encrypt(CipherConfig(), KEY_A, SMALL, "zz")
    with pytest.raises(NotInFormat):
        decrypt(CipherConfig(), KEY_A, SMALL, "zz")


def test_config_validation():
    with pytest.raises(BadParameter):
        CipherConfig(max_size=1)
    with pytest.raises(BadParameter):
        IntFpeKey(bytes(32), rounds=2)
    # every XOF call binds the round count in 2 bytes
    with pytest.raises(BadParameter):
        IntFpeKey(bytes(32), rounds=70_000)
    IntFpeKey(bytes(32), rounds=2**16 - 1)


NOT_INTEGERS = (65536.0, "65536", 1.5, True)


def test_a_slot_bound_must_be_an_integer():
    # the fingerprint binds repr(max_size), so a float bound would split like
    # 65536 and yet encipher under another fingerprint
    spec = VarString(1, 9, "abcdefghijklmnopqrstuvwxyz")
    assert encrypt(CipherConfig(max_size=65536), IntFpeKey(bytes(32)), spec, "hello") == "malsb"
    for value in NOT_INTEGERS:
        for call in (lambda: CipherConfig(max_size=value), lambda: build_plan(spec, value),
                     lambda: rank_multi(spec, value, "hello")):
            with pytest.raises(BadParameter):
                call()


def test_a_slot_bound_must_be_below_the_longest_repr():
    # the fingerprint binds repr(max_size), which CPython refuses past 4,300 digits
    spec = VarString(1, 9, "abcdefghijklmnopqrstuvwxyz")
    key, below = IntFpeKey(bytes(32)), 10**4300 - 1
    c = encrypt(CipherConfig(max_size=below), key, spec, "hello")
    assert decrypt(CipherConfig(max_size=below), key, spec, c) == "hello"
    for value in (10**4300, 2**15000):
        for call in (lambda: CipherConfig(max_size=value), lambda: build_plan(spec, value)):
            with pytest.raises(BadParameter):
                call()


def test_round_counts_and_walk_budgets_must_be_integers():
    for value in NOT_INTEGERS + (12.0,):
        for call in (lambda: IntFpeKey(bytes(32), rounds=value),
                     lambda: CipherConfig(walk_budget=value), lambda: Fe1Backend(walk_budget=value)):
            with pytest.raises(BadParameter):
                call()


def test_keygen_shapes():
    k = keygen()
    assert isinstance(k, IntFpeKey)
    assert len(k.secret) == 32
    assert len(keygen(128).secret) == 32
    assert keygen().secret != keygen().secret
    with pytest.raises(BadParameter):
        keygen(192)


def test_a_walk_past_the_budget_fails_on_the_default_path():
    # 26 x 26 x 15 = 10,140 values on a 100 x 102 Feistel range: a few
    # inputs need a second application, which a budget of one does not
    # allow. Upper-case members cannot show up in the lower-case message.
    upper = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    spec = FixedString((upper, upper, upper[:15]))
    assert balanced_factor(spec.size)[2] > spec.size
    rec = WalkRecorder()
    for r in range(spec.size):
        encrypt(CipherConfig(), KEY_A, spec, unrank(spec, r), backend=Fe1Backend(recorder=rec))
    walked = [r for r, (_, steps) in enumerate(rec.events) if steps > 1]
    assert walked
    for r in walked:
        m = unrank(spec, r)
        with pytest.raises(WalkBudgetExceeded) as e:
            encrypt(CipherConfig(walk_budget=1), KEY_A, spec, m)
        assert m not in str(e.value) and str(r) not in str(e.value), r
    for r in range(0, spec.size, 97):
        if r not in walked:
            m = unrank(spec, r)
            assert encrypt(CipherConfig(walk_budget=1), KEY_A, spec, m) == encrypt(
                CipherConfig(), KEY_A, spec, m)
