"""Field arithmetic checks against an independent sympy oracle."""

import random

import pytest
import sympy
from sympy.abc import x as _x

from congestcolor import gf2


def mask_to_poly(mask):
    expr = sum(_x**i for i in range(mask.bit_length()) if (mask >> i) & 1)
    return sympy.Poly(expr, _x, modulus=2)


def poly_to_mask(poly):
    mask = 0
    for (i,), c in poly.terms():
        if int(c) % 2:
            mask |= 1 << i
    return mask


def oracle_smallest_irreducible(m):
    # ascending scan, constant term forced to 1
    cand = (1 << m) | 1
    while True:
        if mask_to_poly(cand).is_irreducible:
            return cand
        cand += 2


def oracle_mul(m, modulus, a, b):
    pa, pb, pf = mask_to_poly(a), mask_to_poly(b), mask_to_poly(modulus)
    return poly_to_mask((pa * pb) % pf)


def test_smallest_irreducible_frozen_values():
    assert gf2.find_irreducible(1) == 0b11
    assert gf2.find_irreducible(2) == 0b111
    assert gf2.find_irreducible(8) == 0b100011011


@pytest.mark.parametrize("m", range(1, 17))
def test_smallest_irreducible_matches_oracle(m):
    assert gf2.find_irreducible(m) == oracle_smallest_irreducible(m)


def test_large_degree_uses_rabin_criterion():
    # degrees past the parametrised range still agree with the oracle
    for m in (17, 20):
        assert gf2.find_irreducible(m) == oracle_smallest_irreducible(m)


def test_field_spec_bounds():
    with pytest.raises(gf2.FieldSizeError):
        gf2.field(0)
    with pytest.raises(gf2.FieldSizeError):
        gf2.field(64)
    assert gf2.field(63).m == 63


def test_mul_gf4_full_table():
    f = gf2.field(2)
    assert f.modulus == 0b111
    # elements 0, 1, x, x+1 under x^2 + x + 1
    expect = {
        (0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 0,
        (1, 1): 1, (1, 2): 2, (1, 3): 3,
        (2, 2): 3, (2, 3): 1,
        (3, 3): 2,
    }
    for (a, b), want in expect.items():
        assert gf2.mul(f, a, b) == want
        assert gf2.mul(f, b, a) == want


def test_mul_identity_and_zero():
    rng = random.Random(7)
    for m in (1, 3, 8, 13, 24, 63):
        f = gf2.field(m)
        for _ in range(20):
            a = rng.randrange(1 << m)
            assert gf2.mul(f, a, 0) == 0
            assert gf2.mul(f, a, 1) == a


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_field_axioms_exhaustive(m):
    f = gf2.field(m)
    size = 1 << m
    els = range(size)
    table = [[gf2.mul(f, a, b) for b in els] for a in els]
    for a in els:
        for b in els:
            assert table[a][b] == table[b][a]
            for c in els:
                assert table[table[a][b]][c] == table[a][table[b][c]]
                assert table[a][b ^ c] == table[a][b] ^ table[a][c]
    # nonzero rows are permutations, so inverses exist and are unique
    for a in range(1, size):
        assert sorted(table[a]) == list(els)


def test_mul_matches_oracle_random():
    rng = random.Random(21)
    for m in (5, 9, 16, 17, 33):
        f = gf2.field(m)
        for _ in range(25):
            a = rng.randrange(1 << m)
            b = rng.randrange(1 << m)
            assert gf2.mul(f, a, b) == oracle_mul(m, f.modulus, a, b)


def test_mul_rejects_out_of_range():
    f = gf2.field(3)
    with pytest.raises(ValueError):
        gf2.mul(f, 8, 1)
    with pytest.raises(ValueError):
        gf2.mul(f, 1, -1)
