"""Seedless, platform-stable 64-bit hashing of integer tuples.

Folded fingerprint vectors and scaffold keys are part of the on-disk
contract, so the hash must be bit-exact across platforms and Python
versions: values are encoded as little-endian signed 64-bit words, digested
with FNV-1a, and finished with a SplitMix64-style avalanche so that modulo
folding sees well-mixed low bits.
"""

from __future__ import annotations

import struct

import numpy as np

_MASK64 = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x00000100000001B3


def mix64(x):
    """SplitMix64 finalizer; bijective avalanche on 64-bit words.

    Takes a Python int (negative ones as their two's-complement word) or a
    uint64 array, whose arithmetic wraps silently; numpy scalars would warn
    on overflow, so pass arrays.
    """
    x = x & _MASK64
    x = x ^ (x >> 30)
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x = x ^ (x >> 27)
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def hash_ints(*values: int) -> int:
    """Hash a tuple of (possibly negative) Python ints to unsigned 64 bits.

    Each value is reduced to its 64-bit two's-complement word before
    encoding, so negative inputs and unsigned hash feedback both round-trip.
    """
    data = struct.pack(f"<{len(values)}Q", *(v & _MASK64 for v in values))
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return mix64(h)


def hash_rows(rows) -> np.ndarray:
    """``hash_ints`` of every row of an int64 matrix, as a uint64 array.

    FNV-1a runs over all rows at once, one little-endian byte column per
    step, in wrapping uint64 arithmetic; a matrix of no rows gives no hashes.
    """
    rows = np.ascontiguousarray(rows, dtype="<i8")
    data = rows.view(np.uint8).reshape(len(rows), 8 * rows.shape[1])
    h = np.full(len(rows), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for column in data.T:
        h ^= column
        h *= prime
    return mix64(h)
