"""Pairwise-independent biased coins from a two-coefficient hash.

The hash family maps an a-bit color x to b output bits through GF(2^m),
m = max(a, b):

    h_{s1,s2}(x) = low b bits of (s1 * embed(x) + s2)

with field multiplication and XOR addition.  For x != y the seed-to-output
map (s1, s2) -> (h(x), h(y)) is a 2^(2m-2b)-to-1 cover of all pairs, because
the linear system has determinant x - y != 0, so any two coins on distinct
colors are independent and each output value is exactly uniform.

A coin with target probability p fires when the hash lands below the
threshold ceil(p * 2^b); the realized probability t / 2^b sits in
[p, p + 2^-b] and hits p exactly at p in {0, 1}.

Seeds carry 2m bits.  Bit j of the packed seed integer is coefficient j of
s1 for j < m and coefficient j - m of s2 otherwise; that fixed order is what
the level-fixing loop walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import gf2


@dataclass(frozen=True)
class FamilySpec:
    """Hash family sized for K colors and b output bits."""

    K: int
    a: int
    b: int
    m: int
    fld: gf2.FieldSpec

    @property
    def seed_bits(self) -> int:
        return 2 * self.m


@dataclass(frozen=True)
class Seed:
    s1: int
    s2: int


def make_family(K: int, b: int) -> FamilySpec:
    if K < 1:
        raise ValueError(f"color space must be nonempty, got K={K}")
    if b < 1:
        raise ValueError(f"need at least one output bit, got b={b}")
    a = max(1, (K - 1).bit_length())
    m = max(a, b)
    return FamilySpec(K=K, a=a, b=b, m=m, fld=gf2.field(m))


def hash_eval(fam: FamilySpec, seed: Seed, x: int) -> int:
    if not 0 <= x < (1 << fam.a):
        raise ValueError(f"color {x} outside the {fam.a}-bit input range")
    full = gf2.mul(fam.fld, seed.s1, x) ^ seed.s2
    return full & ((1 << fam.b) - 1)


def threshold(p: Fraction, b: int) -> int:
    """ceil(p * 2^b) for p in [0, 1]."""
    if p < 0 or p > 1:
        raise ValueError(f"bias must lie in [0, 1], got {p}")
    num, den = p.numerator << b, p.denominator
    return -(-num // den)


def seed_from_int(fam: FamilySpec, v: int) -> Seed:
    if not 0 <= v < (1 << fam.seed_bits):
        raise ValueError(f"seed integer needs {fam.seed_bits} bits")
    mask = (1 << fam.m) - 1
    return Seed(s1=v & mask, s2=(v >> fam.m) & mask)


def seed_to_int(fam: FamilySpec, seed: Seed) -> int:
    return seed.s1 | (seed.s2 << fam.m)


def seed_bit_string(fam: FamilySpec, seed: Seed) -> str:
    v = seed_to_int(fam, seed)
    return "".join(str((v >> j) & 1) for j in range(fam.seed_bits))
