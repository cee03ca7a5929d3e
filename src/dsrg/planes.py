"""Bit masks and bit planes: exact vector arithmetic in a few wide-int operations.

A 0/1 vector over positions 0..w-1 is one Python int, bit i for
position i.  A vector of counts is held as bit planes: plane i is an
int whose bit v is bit i of the count at position v.  Adding a 0/1
vector to such a stack is a ripple carry over whole planes, so a sum
of many vectors costs a few wide-int operations per vector, and two
stacks are compared, or a constant is matched, position by position
with one xor per plane.  Taking a stack from a larger one is a ripple
borrow, the mirror of the carry.  The DSRG verifier holds the rows of
A^2 this way, and may reach one row from another by adding and taking
away the few terms in which they differ.  The partial-geometry
verifier counts in lanes of one int instead; its docstring says why.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress, zip_longest


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> list[int]:
    """The set bits of a non-negative mask, ascending, in one C-level pass:
    its binary digits, reversed and mapped to 0/1 bytes, select from the
    positions 0..width-1."""
    flags = format(mask, "b")[::-1].encode().translate(_BIT_FLAGS)
    return list(compress(range(len(flags)), flags))


def _add_planes(acc: list[int], planes: list[int], shift: int) -> None:
    """Add the counts held in `planes`, times 2**shift, to those in `acc`.

    A ripple-carry adder over whole planes: plane i of `planes` meets
    plane i + shift of `acc`, and the carry runs on until it dies out.
    """
    if len(acc) < shift + len(planes):
        acc.extend([0] * (shift + len(planes) - len(acc)))
    carry = 0
    i = shift
    for plane in planes:
        a = acc[i]
        half = a ^ plane
        acc[i] = half ^ carry
        carry = (a & plane) | (carry & half)
        i += 1
    while carry:
        if i == len(acc):
            acc.append(carry)
            return
        a = acc[i]
        acc[i] = a ^ carry
        carry &= a
        i += 1


def _sub_planes(acc: list[int], planes: list[int]) -> None:
    """Subtract the counts held in `planes` from those in `acc`.

    A ripple-borrow subtractor over whole planes, the mirror of
    _add_planes: plane i of `planes` meets plane i of `acc`, the borrow
    runs on until it dies out, and the zero planes left on top are
    dropped.  No count of `planes` may exceed the count of `acc` in its
    column, so the borrow always dies inside `acc`.
    """
    borrow = 0
    i = 0
    for plane in planes:
        a = acc[i]
        half = a ^ plane
        acc[i] = half ^ borrow
        borrow = (plane & ~a) | (borrow & ~half)
        i += 1
    while borrow:
        a = acc[i]
        acc[i] = a ^ borrow
        borrow &= ~a
        i += 1
    while acc and not acc[-1]:
        acc.pop()


def _add_times(acc: list[int], planes: list[int], c: int) -> None:
    """Add c times the counts in `planes` to `acc`: one shifted add per bit of c."""
    shift = 0
    while c:
        if c & 1:
            _add_planes(acc, planes, shift)
        c >>= 1
        shift += 1


def _weighted_sum(terms: Iterable[tuple[int, int]]) -> list[int]:
    """Bit planes of the sum of c * x over the (c, x) terms, x a 0/1 vector.

    The vectors of one count are added into one plane stack, and each
    stack is then multiplied by its count, so a count shared by many
    terms costs one multiplication.  Terms with c = 0 are skipped.  A
    vector enters its stack by ripple carry: plane i takes the sum bit,
    the carry moves up, and the loop stops as soon as no position
    carries.
    """
    stacks: dict[int, list[int]] = {}
    for c, x in terms:
        if c:
            stack = stacks.get(c)
            if stack is None:
                stack = stacks[c] = []
            for i, plane in enumerate(stack):
                stack[i] = plane ^ x
                x &= plane
                if not x:
                    break
            if x:
                stack.append(x)
    acc: list[int] = []
    for c, stack in stacks.items():
        _add_times(acc, stack, c)
    return acc


def _value_planes(parts: list[tuple[int, int]], width: int) -> list[int]:
    """Bit planes of the vector that equals `value` on each disjoint `mask`.

    Every value must be below 2**width.
    """
    planes = [0] * width
    for value, mask in parts:
        i = 0
        while value:
            if value & 1:
                planes[i] |= mask
            value >>= 1
            i += 1
    return planes


def _differ(got: list[int], want: list[int]) -> int:
    """Mask of the positions where two plane stacks hold different counts."""
    diff = 0
    for a, b in zip_longest(got, want, fillvalue=0):
        diff |= a ^ b
    return diff


def _count(planes: list[int], w: int) -> int:
    return sum(((plane >> w) & 1) << i for i, plane in enumerate(planes))
