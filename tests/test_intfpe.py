"""Integer range permutations: factoring, Feistel passes, shuffles, cycle walking."""

import gc
import hashlib
import random
import sys
import threading
import tracemalloc
import types
import weakref
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpekit import (
    BadParameter,
    CipherConfig,
    Fe1Backend,
    InputOutOfDomain,
    IntFpeKey,
    RankVector,
    WalkBudgetExceeded,
    WalkRecorder,
    balanced_factor,
    cycle_walk_decrypt,
    cycle_walk_encrypt,
    decrypt,
    encrypt,
    feistel_decrypt,
    feistel_encrypt,
    format_fingerprint,
    rank_multi,
    read_key_file,
    unrank,
    unrank_multi,
    write_key_file,
)
from fpekit import intfpe
from fpekit.analysis import sgfpe_decrypt, sgfpe_encrypt
from fpekit.intfpe import SHUFFLE_LIMIT

from corpus import ADDRESS

KEY = IntFpeKey(bytes(range(32)))


# ---------------------------------------------------------------------------
# factoring


def test_balanced_factor_pins():
    assert balanced_factor(20) == (4, 5, 20)
    assert balanced_factor(4) == (2, 2, 4)
    assert balanced_factor(7) == (2, 4, 8)
    assert balanced_factor(2) == (2, 2, 4)
    assert balanced_factor(3) == (2, 2, 4)


def test_balanced_factor_is_near_square():
    large = [2**32 + 1, 2_000_006, 999_999_937, 10**30, 2**256 - 1, 3**200, 2**2000]
    for n in list(range(2, 200_000)) + large:
        a, b, n2 = balanced_factor(n)
        assert n2 == a * b >= n, n
        assert 2 <= a <= b <= a + 3, n
        if n >= 4:
            assert n2 - n < a, n


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


def test_feistel_binds_the_domain_size():
    # 20000 and 20001 share the split 141 x 142, but not the round function
    assert balanced_factor(20000) == balanced_factor(20001)
    xs = range(0, 20000, 997)
    assert [feistel_encrypt(KEY, b"n", 20000, x) for x in xs] != [
        feistel_encrypt(KEY, b"n", 20001, x) for x in xs]


def test_feistel_deterministic():
    xs = [feistel_encrypt(KEY, b"tweak", 12345, 77) for _ in range(3)]
    assert xs[0] == xs[1] == xs[2]


def test_feistel_handles_huge_domains():
    n = 2**256
    x = 123456789 << 128
    y = feistel_encrypt(KEY, b"big", n, x)
    assert 0 <= y < balanced_factor(n)[2]
    assert feistel_decrypt(KEY, b"big", n, y) == x


def test_feistel_round_trips_on_a_2000_bit_domain():
    # each half is 1,000 bits, so every round draws a 133-byte XOF output
    n = 2**2000
    for x in (0, 3**1200, n - 1):
        y = feistel_encrypt(KEY, b"huge", n, x)
        assert 0 <= y < n
        assert y != x
        assert feistel_decrypt(KEY, b"huge", n, y) == x


def test_feistel_round_makes_one_xof_call(monkeypatch):
    import fpekit.intfpe as intfpe

    calls = []

    class Counting:
        def __init__(self, h):
            self.h = h

        def update(self, data):
            self.h.update(data)

        def copy(self):
            return Counting(self.h.copy())

        def digest(self, n):
            calls.append(n)
            return self.h.digest(n)

    real = intfpe._base_state
    monkeypatch.setattr(intfpe, "_base_state", lambda *args: Counting(real(*args)))
    for n in (SHUFFLE_LIMIT + 1, 17_576, 2**40 + 3):
        for x in (0, 1, n // 3):
            calls.clear()
            feistel_encrypt(KEY, b"count", n, x)
            assert len(calls) == KEY.rounds, n
    calls.clear()
    cycle_walk_encrypt(KEY, b"count", SHUFFLE_LIMIT, 5)
    assert len(calls) == 1


def test_key_validation():
    with pytest.raises(BadParameter):
        IntFpeKey(b"short")
    with pytest.raises(BadParameter):
        IntFpeKey(bytes(32), rounds=2)
    with pytest.raises(BadParameter):
        IntFpeKey(bytes(32), rounds=2**16)
    IntFpeKey(bytes(32), rounds=3)
    IntFpeKey(bytes(32), rounds=2**16 - 1)


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
    # 20 is shuffled; 400 = 20 x 20 is a Feistel domain that factors
    # exactly, so every application already lands inside
    for m in (20, 400):
        rec = WalkRecorder()
        for x in range(m):
            cycle_walk_encrypt(KEY, b"fit", m, x, recorder=rec)
        assert {s for _, s in rec.events} == {1}


def test_cycle_walk_budget_exceeded():
    # the smallest Feistel domain that does not factor exactly walks inside
    # [0, n'); find a tweak where some input needs more than one
    # application, then a budget of one must fail exactly there
    m = next(n for n in range(SHUFFLE_LIMIT + 1, 2 * SHUFFLE_LIMIT) if balanced_factor(n)[2] > n)
    for t in range(64):
        tweak = b"tight%d" % t
        walked = WalkRecorder()
        for x in range(m):
            cycle_walk_encrypt(KEY, tweak, m, x, recorder=walked)
        long_walks = sum(1 for _, s in walked.events if s > 1)
        if long_walks:
            break
    else:
        pytest.fail("no tweak produced a multi-step walk")
    hits = 0
    for x in range(m):
        try:
            cycle_walk_encrypt(KEY, tweak, m, x, walk_budget=1)
        except WalkBudgetExceeded:
            hits += 1
    assert hits == long_walks > 0


def test_cycle_walk_rejects_bad_inputs():
    with pytest.raises(BadParameter):
        cycle_walk_encrypt(KEY, b"", 0, 0)
    with pytest.raises(InputOutOfDomain):
        cycle_walk_encrypt(KEY, b"", 5, 5)


def test_out_of_domain_errors_give_the_bit_length_not_the_value():
    x = 987654321
    for call in (feistel_encrypt, feistel_decrypt, cycle_walk_encrypt, cycle_walk_decrypt):
        with pytest.raises(InputOutOfDomain) as e:
            call(KEY, b"", 1024, x)
        assert str(x) not in str(e.value)
        assert "30-bit" in str(e.value) and "[0, 1024)" in str(e.value)


# ---------------------------------------------------------------------------
# the keyed shuffle for domains up to SHUFFLE_LIMIT


def _table(key, tweak, n):
    return [cycle_walk_encrypt(key, tweak, n, x) for x in range(n)]


def test_shuffle_is_a_keyed_permutation_that_round_trips():
    other_key = IntFpeKey(bytes(32))
    fewer_rounds = IntFpeKey(KEY.secret, rounds=6)
    for n in range(2, SHUFFLE_LIMIT + 1):
        rec = WalkRecorder()
        table = [cycle_walk_encrypt(KEY, b"s", n, x, recorder=rec) for x in range(n)]
        assert sorted(table) == list(range(n)), n
        assert rec.events == [(n, 1)] * n
        assert [cycle_walk_decrypt(KEY, b"s", n, y) for y in table] == list(range(n))
        if n >= 6:
            # at n < 6 two keys share a permutation too often to pin
            assert table != _table(other_key, b"s", n), n
            assert table != _table(KEY, b"t", n), n
            assert table != _table(fewer_rounds, b"s", n), n


def test_shuffle_variants_differ_on_tiny_domains():
    # at n = 2 any two keyed permutations agree half the time, so compare
    # over many tweaks instead
    tweaks = [b"%d" % i for i in range(64)]
    base = [_table(KEY, t, 2) for t in tweaks]
    assert base != [_table(IntFpeKey(bytes(32)), t, 2) for t in tweaks]
    assert base != [_table(IntFpeKey(KEY.secret, rounds=6), t, 2) for t in tweaks]
    assert base != [_table(KEY, t + b"x", 2) for t in tweaks]


def test_shuffle_spreads_over_all_permutations():
    counts = Counter(tuple(_table(KEY, b"dist%d" % i, 3)) for i in range(1200))
    assert set(counts) == set(permutations(range(3)))
    assert all(140 <= c <= 260 for c in counts.values()), counts


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


def test_backend_and_config_reject_a_walk_budget_below_one():
    for budget in (0, -1):
        with pytest.raises(BadParameter):
            Fe1Backend(walk_budget=budget)
        with pytest.raises(BadParameter):
            CipherConfig(walk_budget=budget)
    Fe1Backend(walk_budget=1)
    CipherConfig(walk_budget=1)


def test_the_public_cycle_walks_check_their_walk_budget():
    # unchecked, 1.5 and 0 are never equal to a step count, and so no budget
    walks = (lambda b: cycle_walk_encrypt(KEY, b"t", 1000, 7, b),
             lambda b: cycle_walk_decrypt(KEY, b"t", 1000, 7, b),
             lambda b: sgfpe_encrypt(KEY, "Hello", b), lambda b: sgfpe_decrypt(KEY, "Hello", b))
    for walk in walks:
        for budget in (1.5, 0, True, "1"):
            with pytest.raises(BadParameter):
                walk(budget)
        walk(intfpe.WALK_BUDGET)


# ---------------------------------------------------------------------------
# the permutations a key keeps


def test_key_repr_holds_no_secret():
    key = IntFpeKey(bytes(range(32)))
    cycle_walk_encrypt(key, b"r", 1000, 7)
    for text in (repr(key), str(key)):
        assert repr(key.secret) not in text
        assert key.secret.hex() not in text
        assert "_permutations" not in text


def test_key_keeps_at_most_the_bound_of_permutations():
    key = IntFpeKey(bytes(range(32)))
    bound = intfpe._KEY_CACHE_ENTRIES
    for t in range(3 * bound):
        m = 1000 if t % 2 else SHUFFLE_LIMIT
        x = t % m
        y = cycle_walk_encrypt(key, b"b%d" % t, m, x)
        assert cycle_walk_decrypt(key, b"b%d" % t, m, y) == x
        assert len(key._permutations) <= bound
    # emptying a full cache changes no output
    assert cycle_walk_encrypt(IntFpeKey(key.secret), b"b1", 1000, 1) == cycle_walk_encrypt(
        key, b"b1", 1000, 1)


def test_keys_compare_and_hash_on_secret_and_rounds_only():
    used, fresh = IntFpeKey(bytes(range(32))), IntFpeKey(bytes(range(32)))
    feistel_encrypt(used, b"h", 5000, 3)
    cycle_walk_encrypt(used, b"h", 50, 3)
    assert used._permutations and not fresh._permutations
    assert used == fresh and hash(used) == hash(fresh)
    assert len({used, fresh}) == 1
    assert used != IntFpeKey(bytes(range(32)), rounds=6)


def test_a_dropped_key_is_freed_with_its_permutations():
    # by reference counts alone: a pass and its functions make no cycle
    key = IntFpeKey(bytes(range(1, 33)))
    feistel_encrypt(key, b"w", 5000, 3)
    feistel_encrypt(key, b"w", 2**100, 3)
    cycle_walk_encrypt(key, b"w", 50, 3)
    passes = [weakref.ref(p) for p in key._permutations.values()
              if isinstance(p, intfpe._FeistelPass)]
    _pass(key, b"w", 5000)._tabulate()
    ref = weakref.ref(key)
    gc.disable()
    try:
        del key
        assert ref() is None
        assert len(passes) == 2 and [p() for p in passes] == [None, None]
    finally:
        gc.enable()


def _base_states_of_50_round_trips(monkeypatch, key, cfg):
    """Count intfpe._base_state calls per (tweak, n, rounds) over 50
    encrypt+decrypt round trips of one address record at 2^16. Returns the
    counts, and the counts if each slot permutation is built exactly once."""
    calls = Counter()
    real = intfpe._base_state

    def counting(key, tweak, n):
        calls[tweak, n, key.rounds] += 1
        return real(key, tweak, n)

    monkeypatch.setattr(intfpe, "_base_state", counting)
    record = "Elm Street,Dover,42,12345,France"
    for _ in range(50):
        assert decrypt(cfg, key, ADDRESS, encrypt(cfg, key, ADDRESS, record)) == record
    fp = format_fingerprint(ADDRESS, cfg.max_size)
    sizes = rank_multi(ADDRESS, cfg.max_size, record).sizes
    return calls, Counter((fp + i.to_bytes(4, "big"), n, key.rounds) for i, n in enumerate(sizes))


def test_each_slot_permutation_is_built_once_per_key(monkeypatch):
    key = IntFpeKey(bytes(range(2, 34)))
    calls, once_each = _base_states_of_50_round_trips(monkeypatch, key, CipherConfig(max_size=2**16))
    assert calls == once_each


def test_an_8_round_key_builds_each_slot_permutation_once(monkeypatch):
    key = IntFpeKey(bytes(range(2, 34)), rounds=8)
    cfg = CipherConfig(max_size=2**16)
    calls, once_each = _base_states_of_50_round_trips(monkeypatch, key, cfg)
    assert calls == once_each
    assert {r for _, _, r in calls} == {8}


def test_a_slot_permutation_is_stored_once_whichever_path_asks(monkeypatch):
    # encrypt keeps a slot's permutation under (fingerprint, tweak, index,
    # size); a per-slot Fe1Backend call under that slot's slot_tweak must
    # find the same entry, as the benchmark's traced rebuild does
    rng = random.Random(2)
    records = [unrank(ADDRESS, rng.randrange(ADDRESS.size)) for _ in range(210)]
    cfg = CipherConfig(max_size=2**16)
    key = IntFpeKey(bytes(range(32)))
    images = [encrypt(cfg, key, ADDRESS, m) for m in records]
    slots = {(i, n) for m in records
             for i, n in enumerate(rank_multi(ADDRESS, cfg.max_size, m).sizes) if n > 1}
    assert len(key._permutations) == len(slots) == 52
    calls = []
    real = intfpe._base_state
    monkeypatch.setattr(intfpe, "_base_state", lambda *args: calls.append(args) or real(*args))
    fp, backend = format_fingerprint(ADDRESS, cfg.max_size), Fe1Backend()
    for m, c in zip(records, images):
        for text, slot_fn, want in ((m, backend.encrypt, c), (c, backend.decrypt, m)):
            v = rank_multi(ADDRESS, cfg.max_size, text)
            ranks = [slot_fn(key, intfpe.slot_tweak(fp, i, b""), n, r)
                     for i, (r, n) in enumerate(zip(v.ranks, v.sizes))]
            assert unrank_multi(ADDRESS, cfg.max_size, RankVector(ranks, v.sizes), text) == want
    assert calls == []
    assert len(key._permutations) == 52


def test_threads_sharing_a_key_give_the_serial_ciphertexts():
    # distinct caller tweaks make more permutations than the key keeps, so
    # the threads also race while the cache is emptied and refilled
    rng = random.Random(6)
    jobs = [(unrank(ADDRESS, rng.randrange(ADDRESS.size)), b"t%d" % i) for i in range(16)]
    cfg = CipherConfig(max_size=2**16)
    serial = [encrypt(cfg, IntFpeKey(bytes(range(32))), ADDRESS, m, t) for m, t in jobs]
    shared = IntFpeKey(bytes(range(32)))
    start = threading.Barrier(4)
    results = [None] * 4

    def work(k):
        # each thread starts at a different record
        start.wait()
        order = list(range(4 * k, 16)) + list(range(4 * k))
        results[k] = {i: encrypt(cfg, shared, ADDRESS, *jobs[i]) for i in order}

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert [[r[i] for i in range(16)] for r in results] == [serial] * 4


# ---------------------------------------------------------------------------
# tabulated round functions


class _CountingState:
    """A SHAKE state that notes the length of every digest it makes."""

    def __init__(self, h, calls):
        self.h, self.calls = h, calls

    def update(self, data):
        self.h.update(data)

    def copy(self):
        return _CountingState(self.h.copy(), self.calls)

    def digest(self, n):
        self.calls.append(n)
        return self.h.digest(n)


def _entries(n, rounds):
    a, b, _ = balanced_factor(n)
    return (rounds + 1) // 2 * b + rounds // 2 * a


def _largest_tabulated(rounds):
    # a table has at least rounds * isqrt(n) entries, so no n from here up
    # is tabulated; search down
    n = (intfpe.TABLE_LIMIT // rounds + 1) ** 2
    while _entries(n, rounds) > intfpe.TABLE_LIMIT:
        n -= 1
    return n


def _pass(key, tweak, n):
    return intfpe._keyed(key, intfpe._FeistelPass, tweak, n)


def _applies_to_build(key, tweak, n, xs):
    """Encrypt and decrypt, alternately, the values xs under the key's pass
    until it has built its table; the number of applies that took."""
    p = _pass(key, tweak, n)
    for count, x in enumerate(xs, 1):
        (feistel_encrypt if count % 2 else feistel_decrypt)(key, tweak, n, x)
        if p.table is not None:
            return count
    pytest.fail("the pass never built its table")


def test_table_sizes_at_the_limit():
    assert _entries(2**16, 12) == 3072 <= intfpe.TABLE_LIMIT
    assert _largest_tabulated(12) == 341**2
    for rounds in (3, 6, 12):
        n = _largest_tabulated(rounds)
        assert _entries(n, rounds) <= intfpe.TABLE_LIMIT < _entries(n + 1, rounds)


@pytest.mark.parametrize("rounds", [3, 6, 12])
def test_a_tabulated_pass_gives_the_untabulated_outputs(rounds, monkeypatch):
    secret = bytes(range(32))
    for n in (129, 676, 9_999, 17_576, 41_538, _largest_tabulated(rounds)):
        n2 = balanced_factor(n)[2]
        xs = range(n2) if n2 <= 20_000 else random.Random(n).sample(range(n2), 20_000)
        key = IntFpeKey(secret, rounds=rounds)
        _applies_to_build(key, b"tab", n, range(n2))
        ys = [feistel_encrypt(key, b"tab", n, x) for x in xs]
        back = [feistel_decrypt(key, b"tab", n, y) for y in ys]
        assert back == list(xs), n
        with monkeypatch.context() as m:
            m.setattr(intfpe, "TABLE_LIMIT", 0)
            fresh = IntFpeKey(secret, rounds=rounds)
            assert ys == [feistel_encrypt(fresh, b"tab", n, x) for x in xs], n
            # decrypt undoes encrypt on both sides, so a sample suffices
            assert back[::10] == [feistel_decrypt(fresh, b"tab", n, y) for y in ys[::10]], n
        assert _pass(fresh, b"tab", n).table is None


def test_a_tabulated_apply_makes_no_xof_call(monkeypatch):
    calls = []
    real = intfpe._base_state
    monkeypatch.setattr(intfpe, "_base_state", lambda *args: _CountingState(real(*args), calls))
    key = IntFpeKey(bytes(range(3, 35)))
    for n in (SHUFFLE_LIMIT + 1, 17_576, 2**16):
        for x in range(400):
            cycle_walk_encrypt(key, b"zero", n, x % n)
        calls.clear()
        y = feistel_encrypt(key, b"zero", n, 5)
        assert feistel_decrypt(key, b"zero", n, y) == 5
        assert cycle_walk_decrypt(key, b"zero", n, cycle_walk_encrypt(key, b"zero", n, 7)) == 7
        assert calls == [], n


def _reference_pass(key, tweak, n, x, decrypting):
    """One Feistel pass, every round's XOF built afresh from _base_state:
    a copy, one update with the round number and the other half, a digest."""
    a, b, _ = balanced_factor(n)
    base, odd = intfpe._base_state(key, tweak, n), key.rounds % 2

    def f(head, width, nbytes, half):
        h = base.copy()
        h.update(head + half.to_bytes(width, "big"))
        return int.from_bytes(h.digest(nbytes), "big")

    # round i, from 1: odd rounds add to the low half mod a, reading the high
    # half at its byte width; even rounds the other way round; 8 digest bytes
    # over the modulus's own
    wa, wb = ((a - 1).bit_length() + 7) // 8, ((b - 1).bit_length() + 7) // 8
    steps = [(i.to_bytes(2, "big"), (a, wb, wa + 8) if i % 2 else (b, wa, wb + 8))
             for i in range(1, key.rounds + 1)]
    if not decrypting:
        v, u = divmod(x, a)
        for head, (m, width, nbytes) in steps:
            u, v = v, (u + f(head, width, nbytes, v)) % m
        return a * u + v if odd else a * v + u
    u, v = divmod(x, a) if odd else divmod(x, a)[::-1]
    for head, (m, width, nbytes) in reversed(steps):
        u, v = (v - f(head, width, nbytes, u)) % m, u
    return a * v + u


@pytest.mark.parametrize("rounds", [3, 12])
def test_round_states_across_the_shake_rate_give_the_fresh_round_outputs(rounds):
    # SHAKE-256 absorbs 136 bytes a permutation: _base_state's input of
    # 133 to 139 bytes puts the rate boundary before, inside and after the
    # 2-byte round number that a pass absorbs once per round state
    rng = random.Random(rounds)
    for n, tabulated in ((2**40 + 3, False), (17_576, True)):
        assert (_entries(n, rounds) <= intfpe.TABLE_LIMIT) == tabulated
        n2, size_bytes = balanced_factor(n)[2], (n.bit_length() + 7) // 8
        for prefix in range(133, 140):
            tweak = bytes(prefix - (32 + 4 + 4 + size_bytes + 2))
            key = IntFpeKey(bytes(range(7, 39)), rounds=rounds)
            p = _pass(key, tweak, n)

            def agree(count):
                for x in rng.sample(range(n2), count):
                    y = _reference_pass(key, tweak, n, x, False)
                    assert p.apply[0](x) == y and _reference_pass(key, tweak, n, y, True) == x
                    assert p.apply[1](y) == x, (n, prefix)

            agree(2)
            if tabulated:
                assert p.table is None
                while p.table is None:  # on to the build point
                    p.apply[0](0)
                agree(3)


def _crypt_slots(key, fp, tweak, slots, decrypting, walk_budget, recorder=None):
    """The new ranks of a record's (rank, size) slots, one slot_permutation call each."""
    perm = intfpe.slot_permutation(key, fp, tweak, decrypting, walk_budget, recorder)
    return [perm(x, n) for x, n in slots]


@pytest.mark.parametrize("rounds", [3, 12])
def test_a_tabulated_vector_call_gives_the_xof_outputs(rounds, monkeypatch):
    # one record of slots, shuffled, one-valued and Feistel, every Feistel
    # pass tabulated; both directions must equal the untabulated outputs
    # and make no XOF call
    sizes = (1, 5, SHUFFLE_LIMIT, SHUFFLE_LIMIT + 1, 9_999, 17_576, _largest_tabulated(rounds))
    fp, tweak, secret = bytes(range(32)), b"vec", bytes(range(5, 37))
    rng = random.Random(rounds)

    def vectors(count):
        return [[(rng.randrange(n), n) for n in sizes] for _ in range(count)]

    calls = []
    real = intfpe._base_state
    monkeypatch.setattr(intfpe, "_base_state", lambda *args: _CountingState(real(*args), calls))
    key = IntFpeKey(secret, rounds=rounds)
    for v in vectors(max(_entries(n, rounds) // rounds for n in sizes[3:])):
        _crypt_slots(key, fp, tweak, v, False, 10**6)
    passes = [p for p in key._permutations.values() if isinstance(p, intfpe._FeistelPass)]
    assert len(passes) == 4 and all(p.table is not None for p in passes)
    sample = vectors(200)
    calls.clear()
    enc = [_crypt_slots(key, fp, tweak, v, False, 10**6) for v in sample]
    dec = [_crypt_slots(key, fp, tweak, v, True, 10**6) for v in sample]
    back = [_crypt_slots(key, fp, tweak, list(zip(e, sizes)), True, 10**6) for e in enc]
    assert calls == []
    assert back == [[x for x, _ in v] for v in sample]
    with monkeypatch.context() as m:
        m.setattr(intfpe, "TABLE_LIMIT", 0)
        fresh = IntFpeKey(secret, rounds=rounds)
        assert enc == [_crypt_slots(fresh, fp, tweak, v, False, 10**6) for v in sample]
        assert dec == [_crypt_slots(fresh, fp, tweak, v, True, 10**6) for v in sample]
    assert all(p.table is None for p in fresh._permutations.values()
               if isinstance(p, intfpe._FeistelPass))


@pytest.mark.parametrize("rounds", [3, 12])
def test_the_fast_recorded_and_per_slot_paths_agree(rounds):
    # slot_permutation without a recorder, with one, and a cycle walk per
    # slot under its slot_tweak: equal outputs and equal steps, before the
    # tables exist, across their build points and after them
    sizes = (2, SHUFFLE_LIMIT, SHUFFLE_LIMIT + 1, 17_576, _largest_tabulated(rounds) + 1)
    fp, tweak = bytes(range(32)), b"agree"
    key = IntFpeKey(bytes(range(6, 38)), rounds=rounds)
    rng = random.Random(rounds)

    def agree(count):
        for _ in range(count):
            for decrypting in (False, True):
                v = [(rng.randrange(n), n) for n in sizes]
                fast = _crypt_slots(key, fp, tweak, v, decrypting, 10**6)
                recorded, per_slot = WalkRecorder(), WalkRecorder()
                walk = cycle_walk_decrypt if decrypting else cycle_walk_encrypt
                assert _crypt_slots(key, fp, tweak, v, decrypting, 10**6, recorded) == fast
                assert [walk(key, intfpe.slot_tweak(fp, i, tweak), n, x, recorder=per_slot)
                        for i, (x, n) in enumerate(v)] == fast
                assert recorded.events == per_slot.events
                assert [n for n, _ in recorded.events] == list(sizes)

    def tables():
        return [p.table is not None for p in key._permutations.values()
                if isinstance(p, intfpe._FeistelPass)]

    agree(1)
    assert tables() == [False] * 3
    agree(max(_entries(n, rounds) // rounds for n in sizes[2:4]) // 6 + 1)
    assert tables() == [True, True, False]
    agree(20)
    # a budget of one fails wherever the inverse walks, on a tabulated pass
    n, i = sizes[3], 3
    walked = WalkRecorder()
    for y in range(n):
        cycle_walk_decrypt(key, intfpe.slot_tweak(fp, i, tweak), n, y, recorder=walked)
    long = [y for y, (_, steps) in enumerate(walked.events) if steps > 1]
    assert long
    for y in long:
        with pytest.raises(WalkBudgetExceeded):
            _crypt_slots(key, fp, tweak, [(0, 2), (0, 2), (0, 2), (y, n)], True, 1)
        with pytest.raises(WalkBudgetExceeded):
            cycle_walk_decrypt(key, intfpe.slot_tweak(fp, i, tweak), n, y, walk_budget=1)


def test_the_build_point_is_the_apply_count_not_the_inputs():
    for n in (SHUFFLE_LIMIT + 1, 17_576, 2**16):
        n2 = balanced_factor(n)[2]
        spread = random.Random(n).sample(range(n2), n2)
        points = [_applies_to_build(IntFpeKey(bytes(range(32))), b"when", n, xs)
                  for xs in ([0] * n2, spread)]
        assert points == [_entries(n, 12) // 12] * 2, n


def test_an_untabulated_pass_never_builds_a_table():
    n = _largest_tabulated(12) + 1
    key = IntFpeKey(bytes(range(32)))
    for x in range(2 * intfpe.TABLE_LIMIT // 12):
        feistel_encrypt(key, b"never", n, x)
    assert _pass(key, b"never", n).table is None


def _xof_states_held(obj):
    """How many SHAKE states obj's attributes reach through tuples, lists
    and functions' closures."""
    xof, seen, todo = type(hashlib.shake_256()), {}, list(vars(obj).values())
    while todo:
        o = todo.pop()
        if id(o) not in seen:
            seen[id(o)] = o
            if isinstance(o, (tuple, list)):
                todo.extend(o)
            elif isinstance(o, types.FunctionType):
                todo.extend(c.cell_contents for c in o.__closure__ or ())
    return sum(isinstance(o, xof) for o in seen.values())


def test_a_pass_holds_its_round_states_until_it_has_built_its_table():
    key, n = IntFpeKey(bytes(range(32))), 17_576
    p = _pass(key, b"held", n)
    assert _xof_states_held(p) == 12 and p.steps() is not None
    for x in range(_entries(n, 12) // 12):
        feistel_encrypt(key, b"held", n, x)
    assert p.table is not None
    assert _xof_states_held(p) == 0 and p.steps() is None
    untabulated = _pass(key, b"held", 2**40)
    feistel_encrypt(key, b"held", 2**40, 5)
    assert _xof_states_held(untabulated) == 12


def test_threads_racing_across_the_build_point_give_the_serial_ciphertexts():
    # more threads than cores, switching as often as the interpreter allows,
    # all crossing the build points of the same passes
    rng = random.Random(7)
    records = [unrank(ADDRESS, rng.randrange(ADDRESS.size)) for _ in range(40)]
    cfg = CipherConfig(max_size=2**16)
    secret = bytes(range(4, 36))
    # a fresh key per record never reaches a build point
    serial = [encrypt(cfg, IntFpeKey(secret), ADDRESS, m) for m in records]
    shared = IntFpeKey(secret)
    start = threading.Barrier(4, timeout=60)
    results = [None] * 4

    def work(k):
        start.wait()
        order = list(range(10 * k, 40)) + list(range(10 * k))
        out = {}
        for i in order:
            out[i] = encrypt(cfg, shared, ADDRESS, records[i])
            assert decrypt(cfg, shared, ADDRESS, out[i]) == records[i]
        results[k] = out

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert [[r[i] for i in range(40)] for r in results] == [serial] * 4
    passes = [p for p in shared._permutations.values() if isinstance(p, intfpe._FeistelPass)]
    assert any(p.table is not None for p in passes)


class _ZeroState:
    """Stands in for a keyed SHAKE state: every digest reads as 0, and no
    call allocates."""

    def update(self, data):
        pass

    def copy(self):
        return self

    def digest(self, n):
        return b"\0"


def test_a_key_of_256_largest_tables_stays_under_3_mb(monkeypatch):
    # a 16-bit row takes the same memory whatever its values, so the tables
    # are built from a constant XOF: traced, the million SHAKE calls of 256
    # real tables take over ten seconds
    monkeypatch.setattr(intfpe, "_base_state", lambda *args: _ZeroState())
    n = _largest_tabulated(12)
    key = IntFpeKey(bytes(range(32)))
    tracemalloc.start()
    try:
        for t in range(intfpe._KEY_CACHE_ENTRIES):
            _pass(key, b"m%d" % t, n)._tabulate()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(key._permutations) == intfpe._KEY_CACHE_ENTRIES
    assert all(sum(map(len, p.table)) == _entries(n, 12) for p in key._permutations.values())
    assert held < 3 * 2**20, held


def test_a_dropped_many_round_key_leaves_no_per_round_state():
    # a pass keeps one entry per round while its key holds it; nothing keyed
    # by the split and round count outlives the key
    tracemalloc.start()
    try:
        key = IntFpeKey(bytes(range(32)), rounds=10_000)
        for n in (2**40 + 3, 2**64 + 13, 2**100 + 7):
            x = feistel_encrypt(key, b"", n, 5)
            assert feistel_decrypt(key, b"", n, x) == 5
        del key
        gc.collect()  # a full collection also empties CPython's free lists of tuples
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert left < 100_000, left
