"""Integer range permutations: factoring, Feistel passes, cycle walking."""

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpekit import (
    BadParameter,
    Fe1Backend,
    InputOutOfDomain,
    IntFpeKey,
    WalkBudgetExceeded,
    WalkRecorder,
    balanced_factor,
    cycle_walk_decrypt,
    cycle_walk_encrypt,
    feistel_decrypt,
    feistel_encrypt,
    read_key_file,
    write_key_file,
)

KEY = IntFpeKey(bytes(range(32)))


# ---------------------------------------------------------------------------
# factoring


def exact_factor_oracle(n):
    """Smallest composite at or above max(n, 4), split at its largest
    divisor not exceeding the square root."""
    m = max(n, 4)
    while True:
        for d in range(isqrt(m), 1, -1):
            if m % d == 0:
                return d, m // d, m
        m += 1


def test_balanced_factor_pins():
    assert balanced_factor(20) == (4, 5, 20)
    assert balanced_factor(4) == (2, 2, 4)
    assert balanced_factor(7) == (2, 4, 8)
    assert balanced_factor(2) == (2, 2, 4)
    assert balanced_factor(3) == (2, 2, 4)


def test_balanced_factor_matches_oracle():
    for n in list(range(2, 600)) + [997, 1024, 9973, 65537, 10**6 + 3]:
        assert balanced_factor(n) == exact_factor_oracle(n), n


def test_balanced_factor_rejects_tiny_domains():
    with pytest.raises(BadParameter):
        balanced_factor(1)
    with pytest.raises(BadParameter):
        balanced_factor(0)


def test_balanced_factor_large_path():
    for n in (2**32 + 1, 10**30, 2**256 - 1, 3**200):
        a, b, n2 = balanced_factor(n)
        assert a * b == n2 >= n
        assert 1 < a <= b
        # near-square: the overshoot stays below one part in a
        assert n2 - n < b


@given(st.integers(min_value=2, max_value=50_000))
def test_balanced_factor_small_path_properties(n):
    a, b, n2 = balanced_factor(n)
    assert a * b == n2 >= max(n, 4)
    assert 1 < a <= b


# ---------------------------------------------------------------------------
# the Feistel pass


def test_feistel_is_a_bijection_on_the_working_range():
    for n in (6, 7, 20, 97):
        _, _, n2 = balanced_factor(n)
        images = {feistel_encrypt(KEY, b"t", n, x) for x in range(n2)}
        assert images == set(range(n2)), n
        for x in range(n2):
            assert feistel_decrypt(KEY, b"t", n, feistel_encrypt(KEY, b"t", n, x)) == x


def test_feistel_rejects_out_of_range():
    with pytest.raises(InputOutOfDomain):
        feistel_encrypt(KEY, b"", 20, 20)
    with pytest.raises(InputOutOfDomain):
        feistel_decrypt(KEY, b"", 20, -1)


def test_feistel_depends_on_tweak_and_key():
    n = 1000
    base = [feistel_encrypt(KEY, b"a", n, x) for x in range(50)]
    assert base != [feistel_encrypt(KEY, b"b", n, x) for x in range(50)]
    other = IntFpeKey(bytes(32))
    assert base != [feistel_encrypt(other, b"a", n, x) for x in range(50)]


def test_feistel_deterministic():
    xs = [feistel_encrypt(KEY, b"tweak", 12345, 77) for _ in range(3)]
    assert xs[0] == xs[1] == xs[2]


def test_feistel_handles_huge_domains():
    n = 2**256
    x = 123456789 << 128
    y = feistel_encrypt(KEY, b"big", n, x)
    assert 0 <= y < balanced_factor(n)[2]
    assert feistel_decrypt(KEY, b"big", n, y) == x


def test_key_validation():
    with pytest.raises(BadParameter):
        IntFpeKey(b"short")
    with pytest.raises(BadParameter):
        IntFpeKey(bytes(32), rounds=2)
    IntFpeKey(bytes(32), rounds=3)


# ---------------------------------------------------------------------------
# cycle walking


def test_cycle_walk_is_a_permutation():
    for m in (2, 5, 26, 30, 97):
        images = {cycle_walk_encrypt(KEY, b"p", m, x) for x in range(m)}
        assert images == set(range(m)), m
        for x in range(m):
            y = cycle_walk_encrypt(KEY, b"p", m, x)
            assert cycle_walk_decrypt(KEY, b"p", m, y) == x


def test_cycle_walk_trivial_domain_records_zero_steps():
    rec = WalkRecorder()
    assert cycle_walk_encrypt(KEY, b"", 1, 0, recorder=rec) == 0
    assert cycle_walk_decrypt(KEY, b"", 1, 0, recorder=rec) == 0
    assert rec.events == [(1, 0), (1, 0)]


def test_cycle_walk_exact_fit_takes_one_step():
    # 20 factors exactly, so every application already lands inside
    rec = WalkRecorder()
    for x in range(20):
        cycle_walk_encrypt(KEY, b"fit", 20, x, recorder=rec)
    assert {s for _, s in rec.events} == {1}


def test_cycle_walk_budget_exceeded():
    # m = 5 walks inside [0, 8); find a tweak where some input needs more
    # than one application, then a budget of one must fail exactly there
    for t in range(64):
        tweak = b"tight%d" % t
        walked = WalkRecorder()
        for x in range(5):
            cycle_walk_encrypt(KEY, tweak, 5, x, recorder=walked)
        long_walks = sum(1 for _, s in walked.events if s > 1)
        if long_walks:
            break
    else:
        pytest.fail("no tweak produced a multi-step walk")
    hits = 0
    for x in range(5):
        try:
            cycle_walk_encrypt(KEY, tweak, 5, x, walk_budget=1)
        except WalkBudgetExceeded:
            hits += 1
    assert hits == long_walks > 0


def test_cycle_walk_rejects_bad_inputs():
    with pytest.raises(BadParameter):
        cycle_walk_encrypt(KEY, b"", 0, 0)
    with pytest.raises(InputOutOfDomain):
        cycle_walk_encrypt(KEY, b"", 5, 5)


def test_recorder_histogram():
    rec = WalkRecorder()
    rec.record(10, 1)
    rec.record(12, 1)
    rec.record(9, 3)
    assert rec.steps_histogram() == {1: 2, 3: 1}


@given(
    m=st.integers(min_value=2, max_value=10**6),
    data=st.data(),
)
@settings(max_examples=80)
def test_cycle_walk_round_trip_property(m, data):
    x = data.draw(st.integers(min_value=0, max_value=m - 1))
    y = cycle_walk_encrypt(KEY, b"prop", m, x)
    assert 0 <= y < m
    assert cycle_walk_decrypt(KEY, b"prop", m, y) == x


# ---------------------------------------------------------------------------
# key files and backends


def test_key_file_round_trip(tmp_path):
    path = tmp_path / "key.hex"
    key = IntFpeKey(bytes(range(32)))
    write_key_file(path, key)
    assert path.read_text() == bytes(range(32)).hex() + "\n"
    assert read_key_file(path) == key


def test_key_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.hex"
    path.write_text("zz" * 32)
    with pytest.raises(BadParameter):
        read_key_file(path)
    path.write_text("ab" * 16)
    with pytest.raises(BadParameter):
        read_key_file(path)


def test_backend_round_trip_with_recorder():
    rec = WalkRecorder()
    be = Fe1Backend(recorder=rec)
    y = be.encrypt(KEY, b"t", 1000, 123)
    assert be.decrypt(KEY, b"t", 1000, y) == 123
    assert len(rec.events) == 2
    assert all(domain == 1000 for domain, _ in rec.events)
