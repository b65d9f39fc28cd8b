"""Hash-family coin laws, checked by enumerating entire seed spaces."""

from fractions import Fraction
from itertools import combinations

import pytest

from congestcolor import coins, gf2
from oracles import coin_eval, make_coin


def all_seeds(fam):
    for s1 in range(1 << fam.m):
        for s2 in range(1 << fam.m):
            yield coins.Seed(s1, s2)


def test_make_family_frozen_examples():
    fam = coins.make_family(2, 3)
    assert (fam.a, fam.m, fam.seed_bits) == (1, 3, 6)
    fam = coins.make_family(1000, 5)
    assert (fam.a, fam.m, fam.seed_bits) == (10, 10, 20)
    fam = coins.make_family(4, 2)
    assert (fam.a, fam.m, fam.seed_bits) == (2, 2, 4)
    # K=1 still gets one input bit
    assert coins.make_family(1, 1).a == 1


def test_make_family_rejects_oversize():
    with pytest.raises(gf2.FieldSizeError):
        coins.make_family(2, 64)
    with pytest.raises(gf2.FieldSizeError):
        coins.make_family(1 << 64, 1)
    with pytest.raises(ValueError):
        coins.make_family(0, 1)
    with pytest.raises(ValueError):
        coins.make_family(2, 0)


def test_hash_eval_worked_example():
    # m=2, b=2: mul(0b10, 0b11) = 1 in GF(4), xor 0b01 -> 0
    fam = coins.make_family(4, 2)
    assert coins.hash_eval(fam, coins.Seed(0b10, 0b01), 0b11) == 0


def test_hash_eval_degenerate_seeds():
    fam = coins.make_family(8, 3)
    for x in range(8):
        assert coins.hash_eval(fam, coins.Seed(0, 0b101), x) == 0b101
    for s2 in range(8):
        assert coins.hash_eval(fam, coins.Seed(0b110, s2), 0) == s2


def test_threshold_values():
    assert coins.threshold(Fraction(1, 5), 4) == 4
    assert coins.threshold(Fraction(0), 6) == 0
    assert coins.threshold(Fraction(1), 6) == 64
    assert coins.threshold(Fraction(1, 2), 1) == 1
    # realized probability sits in [p, p + 2^-b]
    for num in range(0, 8):
        p = Fraction(num, 7)
        t = coins.threshold(p, 3)
        assert p <= Fraction(t, 8) <= p + Fraction(1, 8)


def test_coin_eval_trivial_thresholds():
    fam = coins.make_family(4, 2)
    never = make_coin(fam, 1, Fraction(0))
    always = make_coin(fam, 1, Fraction(1))
    for seed in all_seeds(fam):
        assert coin_eval(fam, seed, never) == 0
        assert coin_eval(fam, seed, always) == 1


def test_marginal_law_worked_example():
    # m=2, b=2, t=2: exactly half of the 16 seeds fire
    fam = coins.make_family(4, 2)
    coin = make_coin(fam, 0b11, Fraction(1, 2))
    assert coin.t == 2
    hits = sum(coin_eval(fam, s, coin) for s in all_seeds(fam))
    assert Fraction(hits, 16) == Fraction(1, 2)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (3, 2), (2, 3), (4, 3), (3, 4)])
def test_marginal_law_exhaustive(a, b):
    fam = coins.make_family(1 << a, b)
    seeds = list(all_seeds(fam))
    for x in range(min(1 << a, 4)):
        for t in range(0, (1 << b) + 1):
            hits = sum(coins.hash_eval(fam, s, x) < t for s in seeds)
            assert hits * (1 << b) == t * len(seeds)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_pairwise_independence_exhaustive(a, b):
    fam = coins.make_family(1 << a, b)
    seeds = list(all_seeds(fam))
    want = len(seeds) >> (2 * b)
    for x, y in combinations(range(1 << a), 2):
        joint = {}
        for s in seeds:
            key = (coins.hash_eval(fam, s, x), coins.hash_eval(fam, s, y))
            joint[key] = joint.get(key, 0) + 1
        assert len(joint) == 1 << (2 * b)
        assert set(joint.values()) == {want}


def test_xor_offset_identity_exhaustive():
    # h(x) xor h(y) depends only on s1 and x xor y
    for a, b in [(2, 2), (3, 3), (3, 2)]:
        fam = coins.make_family(1 << a, b)
        mask = (1 << b) - 1
        for s in all_seeds(fam):
            for x in range(1 << a):
                for y in range(1 << a):
                    lhs = coins.hash_eval(fam, s, x) ^ coins.hash_eval(fam, s, y)
                    rhs = gf2.mul(fam.fld, s.s1, x ^ y) & mask
                    assert lhs == rhs


def test_seed_int_round_trip():
    fam = coins.make_family(17, 3)  # a=5, m=5, d=10
    assert fam.seed_bits == 10
    for v in (0, 1, 5, 1023, 700):
        s = coins.seed_from_int(fam, v)
        assert coins.seed_to_int(fam, s) == v
    s = coins.seed_from_int(fam, 0b0100000011)
    assert s.s1 == 0b00011
    assert s.s2 == 0b01000
    # bit j of the seed integer is the j-th flip, written left to right
    assert coins.seed_bit_string(fam, s) == "1100000010"
