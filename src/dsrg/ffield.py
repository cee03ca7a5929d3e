"""Table-driven arithmetic for the finite field GF(p^e).

Elements are dense indices 0..q-1.  The index encodes the coefficient
vector of the element's polynomial representative in base p with the
degree-0 coefficient as the least significant digit, so index 0 is the
field zero and index 1 the field one.  All arithmetic is precomputed
into q x q tables; the downstream incidence constructions enumerate
whole fields anyway, so the table cost is negligible and every lookup
is O(1).

For e >= 2 the products come from the addition table alone.  x*a
shifts the digits of a up one place, and the digit that falls off the
top returns as a multiple of the modulus below x^e.  Writing
b = lo + x*hi with lo < p, a*b = lo*a + x*(hi*a), so row a of the
product table is its first p entries, the multiples lo*a, followed by
one run per hi: the same p entries read through the addition row of
x*(hi*a), where hi*a is an entry of row a already built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import isqrt

from .errors import NotPrimePowerError, TooLargeError

MAX_ORDER = 256


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise NotPrimePowerError."""
    if q < 2:
        raise NotPrimePowerError(f"field order must be at least 2, got {q}")
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    n, e = q, 0
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise NotPrimePowerError(f"{q} has two distinct prime divisors")
    return p, e


def _digits(value: int, p: int, width: int) -> tuple[int, ...]:
    """Base-p digits of value, least significant first, padded to width."""
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return tuple(out)


def _poly_rem(a: list[int], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial m, coefficients mod p."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return tuple(c % p for c in a[:dm])


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in range(p ** d):
            divisor = _digits(tail, p, d) + (1,)
            rem = _poly_rem(list(poly), divisor, p)
            if not any(rem):
                return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over Z_p.

    Candidates are compared by their low-degree-first coefficient
    sequence read as a base-p integer, so the search is a plain counter.
    """
    for tail in range(p ** e):
        poly = _digits(tail, p, e) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError(f"no irreducible polynomial of degree {e} over Z_{p}")


@dataclass(frozen=True)
class FiniteField:
    """GF(q) with q = p^e, fully tabulated.

    Immutable after construction; safe for concurrent reads.
    """

    p: int
    e: int
    q: int
    modulus_poly: tuple[int, ...]
    add_table: tuple[tuple[int, ...], ...] = field(repr=False)
    mul_table: tuple[tuple[int, ...], ...] = field(repr=False)
    inv_table: tuple[int, ...] = field(repr=False)

    def elements(self) -> range:
        """All element indices, 0..q-1 in increasing order."""
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.inv_table[a]

    def __repr__(self) -> str:  # tables are huge; keep repr readable
        return f"FiniteField(q={self.q}, p={self.p}, e={self.e}, modulus={self.modulus_poly})"


def make_field(q: int) -> FiniteField:
    """Build GF(q) for a prime power q, 2 <= q <= MAX_ORDER = 256.

    No builder needs more: affine planes stop at q = 64, and the
    incidence budget of build_hyperplane_design at q = 211 (n = 2).

    Deterministic: the modulus is the lexicographically smallest monic
    irreducible of degree e, so two calls yield identical tables.  For
    e >= 2 the products follow the module docstring's recurrence.
    """
    if q > MAX_ORDER:
        raise TooLargeError(f"field order {q} exceeds cap {MAX_ORDER}")
    p, e = _factor_prime_power(q)
    modulus = _smallest_irreducible(p, e)

    if e == 1:
        add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
        mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
        inv = tuple(0 if a == 0 else pow(a, p - 2, p) for a in range(p))
        return FiniteField(p, e, q, modulus, add, mul, inv)

    # a + b digit by digit: row a lists, for b = 0..q-1 (most significant
    # digit outermost), the sum of the digits (a_i + b_i) % p times p^i
    powers_of_p = [p ** i for i in reversed(range(e))]
    add_rows = [tuple(map(sum, product(*[tuple((a // w + t) % p * w for t in range(p))
                                         for w in powers_of_p])))
                for a in range(q)]

    # x*a shifts the digits of a up one place; its top digit d comes back
    # as d*x^e = -d*(modulus below x^e), whose index is carry[d]
    top = q // p
    carry = [sum((-d * c) % p * p ** i for i, c in enumerate(modulus[:e])) for d in range(p)]
    times_x = [add_rows[a % top * p][carry[a // top]] for a in range(q)]

    # b = lo + x*hi with lo < p gives a*b = lo*a + x*(hi*a): row a opens
    # with the multiples lo*a, and its run at hi is them shifted by x*(hi*a)
    mul_rows = []
    for a in range(q):
        small = [0]
        for _ in range(1, p):
            small.append(add_rows[a][small[-1]])
        row = list(small)
        for hi in range(1, top):
            row += map(add_rows[times_x[row[hi]]].__getitem__, small)
        mul_rows.append(tuple(row))
    inv = (0,) + tuple(row.index(1) for row in mul_rows[1:])
    return FiniteField(p, e, q, modulus, tuple(add_rows), tuple(mul_rows), inv)
