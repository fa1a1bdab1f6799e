"""Bitset helpers over non-negative Python ints (bit ``i`` set = member ``i``).

A bitset over a netlist's sites is thousands of bits wide, and peeling
its lowest bit off (``bits & -bits``) copies the whole int once per set
bit.  These helpers read the binary digits as text instead.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")

try:
    #: Number of set bits of an int (``int.bit_count``, Python 3.10+).
    popcount = int.bit_count
except AttributeError:  # pragma: no cover - Python 3.9

    def popcount(bits: int) -> int:
        return bin(bits).count("1")


#: Binary digits ``"0"``/``"1"`` to the flag bytes ``compress`` reads.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _flags(bits: int) -> bytes:
    """One byte per bit of ``bits``, lowest first: 1 where set, else 0."""
    return bin(bits)[:1:-1].encode().translate(_DIGIT_FLAGS)


def flag_list(bits: int, width: int) -> list[int]:
    """Per position ``0 .. width - 1``, 1 where ``bits`` (below ``1 <<
    width``) is set, else 0: the guard form a straight-line kernel
    indexes fastest."""
    flags = list(_flags(bits | 1 << width))
    flags.pop()  # the bit at ``width``, set so every position has a digit
    return flags


def bitset(positions: Sequence[int]) -> int:
    """The bitset with the bits at ``positions`` set (non-negative,
    duplicates allowed).

    Built in one pass over a byte buffer and read as one int, rather than
    ORed in a position at a time, which copies the whole int per position.
    """
    if not positions:
        return 0
    buf = bytearray((max(positions) >> 3) + 1)
    for at in positions:
        buf[at >> 3] |= 1 << (at & 7)
    return int.from_bytes(buf, "little")


def select(items: Sequence[T], bits: int) -> list[T]:
    """The ``items`` at the set bits of ``bits``, in order (bits past the
    end of ``items`` are ignored)."""
    return list(compress(items, _flags(bits)))


def bit_positions(bits: int) -> list[int]:
    """Positions of the set bits of ``bits``, ascending."""
    text = bin(bits)[:1:-1]
    if 8 * popcount(bits) > len(text):
        # Dense: one C-level pass over every digit beats a search per bit.
        return list(compress(range(len(text)), _flags(bits)))
    positions = []
    at = text.find("1")
    while at >= 0:
        positions.append(at)
        at = text.find("1", at + 1)
    return positions


def tally(bitsets: Iterable[int]) -> list[int]:
    """Bit-sliced member counts over ``bitsets``: bit ``i`` of
    ``planes[k]`` is bit ``k`` of how many of them have bit ``i`` set.

    One ripple-carry add per bitset, a few wide ANDs and XORs each, in
    place of a count per member.
    """
    planes: list[int] = []
    for carry in bitsets:
        for k, plane in enumerate(planes):
            planes[k] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    return planes

