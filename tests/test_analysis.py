"""Leakage grouping, sparse-set advantage, expansion measurements."""

import random
import re
from collections import Counter
from datetime import date
from fractions import Fraction
from itertools import product

import pytest

from fpekit import (
    CipherConfig,
    IntegralDomain,
    IntFpeKey,
    VarString,
    contains,
    cycle_walk_encrypt,
    decrypt,
    encrypt,
    intfpe,
    rank,
    size,
    unrank,
)
from fpekit.analysis import (
    GfpeScheme,
    IdentificationCurve,
    SgfpeScheme,
    expansion_and_cycles,
    records_format,
    sgfpe_signature,
)
from fpekit.errors import BadParameter, NotSubset

from experiments import (
    attribute_class_count,
    mr_advantage_sparse,
    signature_format,
    synthetic_records,
    transaction_format,
    transaction_simplified,
)

KEY = IntFpeKey(bytes(range(32)))


def test_signature_pins():
    assert sgfpe_signature("Ab3 x") == ("U", "l", "d", " ", "l")
    assert sgfpe_signature("Zz") == ("U", "l")
    assert sgfpe_signature("@") == ("@",)
    with pytest.raises(BadParameter):
        sgfpe_signature("")


def test_signature_format_charsets():
    f = signature_format(("U", "d", "-"))
    assert f.charsets[0] == "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    assert f.charsets[1] == "0123456789"
    assert f.charsets[2] == "-"
    assert size(f) == 26 * 10


def _curve(records, scheme):
    return IdentificationCurve.of_groups([scheme.group_key(r) for r in records])


def test_sgfpe_round_trip_preserves_signature():
    # the baseline is the cipher on the signature's format, whose
    # fingerprint binds the signature
    cfg = CipherConfig()
    for s in ("Hello World", "a1-B2", "Xyz 99", "@@@", "m"):
        f = signature_format(sgfpe_signature(s))
        c = encrypt(cfg, KEY, f, s)
        assert sgfpe_signature(c) == sgfpe_signature(s)
        assert decrypt(cfg, KEY, f, c) == s
    # literals have singleton classes, so they are immovable
    assert encrypt(cfg, KEY, signature_format(sgfpe_signature("@@@")), "@@@") == "@@@"


def test_identification_curve_exact_fractions():
    records = ["Aa", "Bb", "Cc", "A1"]
    curve = _curve(records, SgfpeScheme())
    third = Fraction(1, 3)
    assert curve.probs == (third, third, third, Fraction(1))
    assert curve.fraction_at(Fraction(1)) == Fraction(1, 4)
    assert curve.fraction_at(third) == Fraction(1)
    assert curve.fraction_at(Fraction(1, 2)) == Fraction(1, 4)
    assert curve.points == ((third, Fraction(1)), (Fraction(1), Fraction(1, 4)))


def test_unbounded_grouping_is_flat():
    records = synthetic_records(200, seed=3)
    curve = _curve(records, GfpeScheme(records_format(), None))
    assert curve.probs == (Fraction(1, 200),) * 200


def test_pattern_grouping_dominates_path_grouping():
    records = synthetic_records(300, seed=1)
    sg = _curve(records, SgfpeScheme())
    gf = _curve(records, GfpeScheme(records_format(), 2**16))
    thresholds = {t for t, _ in sg.points} | {t for t, _ in gf.points}
    assert any(sg.fraction_at(t) > gf.fraction_at(t) for t in thresholds)
    for t in thresholds:
        assert sg.fraction_at(t) >= gf.fraction_at(t), t


def test_sparse_set_advantage_small():
    est = mr_advantage_sparse(2, trials=2000, seed=0)
    assert est.expected == 0.5
    assert abs(est.advantage - est.expected) <= 4 * est.std_err
    with pytest.raises(BadParameter):
        mr_advantage_sparse(1, trials=10)


def test_attribute_class_count_matches_brute_force():
    def brute(max_words, letters):
        pats = set()
        for w in range(1, max_words + 1):
            pats.update(product(range(1, letters + 1), repeat=w))
        return len(pats)

    assert attribute_class_count(2, 3) == brute(2, 3) == 12
    assert attribute_class_count(3, 2) == brute(3, 2) == 14
    assert attribute_class_count(4, 64) == 17_043_520


def test_expansion_and_cycles_on_a_tight_pair():
    rep = expansion_and_cycles(IntegralDomain(0, 6), IntegralDomain(0, 7), trials=400)
    assert rep.expansion == Fraction(8, 7)
    assert abs(rep.al_cy - 8 / 7) < 0.1
    assert sum(rep.walk_histogram.values()) == 400
    assert sum(s * c for s, c in rep.walk_histogram.items()) == pytest.approx(
        rep.al_cy * 400
    )
    assert rep.t_rank >= 0 and rep.t_int_enc > 0 and rep.t_unrank >= 0
    assert rep.t_enc > 0


def test_expansion_and_cycles_walks_the_feistel_pass_above_the_shuffle():
    # above SHUFFLE_LIMIT the cipher's cycle walk applies the same Feistel
    # passes as a loop over the key's pass that walks on until it lands
    # inside the original: same key, same samples, same histogram
    original, simplified, trials, seed = IntegralDomain(0, 99), IntegralDomain(0, 999), 300, 3
    rep = expansion_and_cycles(original, simplified, trials=trials, seed=seed)
    rng = random.Random(seed)
    for _ in range(256):  # the subset samples
        rng.randrange(100)
    key, hist = IntFpeKey(rng.randbytes(32), rounds=6), Counter()
    xs = [rank(simplified, unrank(original, rng.randrange(100))).value for _ in range(trials)]
    # the public walk of the first sample builds the key's pass, kept in the
    # table of its record (None, tweak)
    cycle_walk_encrypt(key, b"bench", 1000, xs[0])
    kept = key._permutations[None, b"bench"][0][1000]
    assert isinstance(kept, intfpe._FeistelPass)
    forward = kept.apply[0]
    for y in xs:
        steps = 0
        while True:
            y, steps = forward(y), steps + 1
            if y < 100:
                break
        hist[steps] += 1
    assert rep.walk_histogram == dict(hist) and max(hist) > 1


def test_simplified_format_must_cover_the_original():
    with pytest.raises(NotSubset):
        expansion_and_cycles(VarString(1, 2, "ab"), VarString(1, 1, "ab"), trials=10)


def test_not_subset_names_the_sample_but_not_its_text():
    # every sample outside the simplified format is six letters of "qz"
    with pytest.raises(NotSubset) as err:
        expansion_and_cycles(VarString(5, 6, "qz"), VarString(5, 5, "qz"), trials=10)
    message = str(err.value)
    assert "sample" in message and "length 6" in message
    assert not re.search("[qz]{6}", message)


def test_transaction_formats_line_up():
    tf = transaction_format()
    ts = transaction_simplified()
    days = (date(2013, 9, 23) - date(1900, 1, 1)).days + 1
    assert size(tf) == days * 888_931_098 * 10**15
    assert size(ts) == 1_600_000 * 10**25
    witness = "07.02.1963, 308059346, 0000000000003343"
    assert contains(tf, witness)
    assert contains(ts, witness)


def test_synthetic_records_live_in_their_format():
    spec = records_format()
    records = synthetic_records(500, seed=7)
    assert len(records) == 500
    assert len(set(records)) > 400
    for r in records:
        assert contains(spec, r)


def test_curve_is_monotone_nonincreasing():
    curve = IdentificationCurve(
        tuple(sorted([Fraction(1, 4)] * 4 + [Fraction(1, 2)] * 2 + [Fraction(1)]))
    )
    pts = curve.points
    assert [t for t, _ in pts] == sorted(t for t, _ in pts)
    fracs = [f for _, f in pts]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))
