"""Whole-string encryption: permutation property, config knobs, tweaks."""

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
    members = list(enumerate_members(SMALL))
    base = [encrypt(CipherConfig(), KEY_A, SMALL, m) for m in members]
    short = [encrypt(CipherConfig(rounds=6), KEY_A, SMALL, m) for m in members]
    assert base != short
    for m in members:
        c = encrypt(CipherConfig(rounds=6), KEY_A, SMALL, m)
        assert decrypt(CipherConfig(rounds=6), KEY_A, SMALL, c) == m


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
        cfg = CipherConfig(max_size=bound, rounds=8)
        for m in sample:
            c = encrypt(cfg, KEY_A, spec, m)
            assert contains(spec, c)
            assert decrypt(cfg, KEY_A, spec, c) == m


def test_rejects_non_members():
    with pytest.raises(NotInFormat):
        encrypt(CipherConfig(), KEY_A, SMALL, "zz")
    with pytest.raises(NotInFormat):
        decrypt(CipherConfig(), KEY_A, SMALL, "zz")


def test_config_validation():
    with pytest.raises(BadParameter):
        CipherConfig(max_size=1)
    with pytest.raises(BadParameter):
        CipherConfig(rounds=2)
    # the key binds the round count in 2 bytes, so the config checks the same range
    with pytest.raises(BadParameter):
        CipherConfig(rounds=70_000)
    CipherConfig(rounds=2**16 - 1)


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


def test_round_counts_and_walk_budgets_must_be_integers():
    for value in NOT_INTEGERS + (12.0,):
        for call in (lambda: CipherConfig(rounds=value), lambda: IntFpeKey(bytes(32), rounds=value),
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
