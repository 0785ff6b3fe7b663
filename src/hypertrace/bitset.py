"""Bit-vector helpers for subsets of a dense vertex range.

Vertex subsets are plain ints: bit i set means position i is in the set.
Positions are indices into a sorted vertex list, so the same helpers work
for hypergraphs whose vertex ids are not contiguous.
"""

from __future__ import annotations

from collections.abc import Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
