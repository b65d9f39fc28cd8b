"""Arithmetic in small binary extension fields GF(2^m).

Polynomials over GF(2) are packed into Python ints, bit i holding the
coefficient of x^i.  A field of order 2^m is represented by the monic
irreducible modulus of degree m with the smallest integer mask; the constant
term is forced to 1, which for m = 1 selects x + 1 (mask 0b11).  Addition is
XOR and is not wrapped.  Degrees are capped at 63 so elements stay machine
words conceptually, though Python ints carry them either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

MAX_DEGREE = 63


class FieldSizeError(ValueError):
    """Degree outside the supported 1..63 range."""


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^m) by degree and modulus mask; mul takes any monic modulus."""

    m: int
    modulus: int


def _pmod(a: int, f: int) -> int:
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df and a:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def _x_pow_2k_mod(k: int, f: int) -> int:
    # x^(2^k) mod f by k squarings in GF(2)[x] / (f)
    t = _pmod(0b10, f)
    for _ in range(k):
        t = mul(FieldSpec(f.bit_length() - 1, f), t, t)
    return t


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(mask: int) -> bool:
    """Irreducibility of a monic polynomial given as a bit mask.

    Rabin's criterion: f of degree m is irreducible iff x^(2^m) = x mod f
    and gcd(x^(2^(m/p)) - x, f) = 1 for every prime p dividing m.
    """
    m = mask.bit_length() - 1
    if m <= 0:
        return False
    if m == 1:
        return True
    if not mask & 1:
        return False
    if _x_pow_2k_mod(m, mask) != 0b10:
        return False
    for p in _prime_factors(m):
        if _pgcd(_x_pow_2k_mod(m // p, mask) ^ 0b10, mask) != 1:
            return False
    return True


def find_irreducible(m: int) -> int:
    """Smallest-mask monic irreducible of degree m (constant term 1)."""
    if not 1 <= m <= MAX_DEGREE:
        raise FieldSizeError(f"extension degree must be in 1..{MAX_DEGREE}, got {m}")
    cand = (1 << m) | 1
    while True:
        if is_irreducible(cand):
            return cand
        cand += 2


@lru_cache(maxsize=None)
def field(m: int) -> FieldSpec:
    """FieldSpec for GF(2^m) with the canonical smallest modulus."""
    return FieldSpec(m, find_irreducible(m))


def mul(spec: FieldSpec, a: int, b: int) -> int:
    """a * b modulo spec's monic degree-m modulus: in GF(2^m) when it is
    irreducible, else in the ring GF(2)[x] / (f) that is_irreducible uses.

    Shift-and-xor carry-less multiplication with reduction folded into each
    shift, so intermediates never exceed m+1 bits.
    """
    size = 1 << spec.m
    if not 0 <= a < size or not 0 <= b < size:
        raise ValueError(f"elements must lie in [0, 2^{spec.m})")
    top = size
    mod = spec.modulus
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= mod
    return r
