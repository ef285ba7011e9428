"""Seedless, platform-stable 64-bit hashing of integer tuples.

Folded fingerprint vectors and scaffold keys are part of the on-disk
contract, so the hash must be bit-exact across platforms and Python
versions: values are encoded as little-endian signed 64-bit words, digested
with FNV-1a, and finished with a SplitMix64-style avalanche so that modulo
folding sees well-mixed low bits.

A word below 256 takes one FNV step instead of eight: its seven zero bytes
only multiply the state by the prime, so ``(h ^ v) * prime**8`` (mod 2**64)
gives the same state as the byte loop. Fingerprint and scaffold rows hold
many such words (tags, element numbers, degrees, bond orders, distances).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x00000100000001B3
#: _FNV_PRIME ** 8 mod 2**64, the FNV step of a byte followed by seven zero bytes
_FNV_PRIME8 = 0x1EFAC7090AEF4A21


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
    h = _FNV_OFFSET
    for v in values:
        v &= _MASK64
        if v < 256:
            h = ((h ^ v) * _FNV_PRIME8) & _MASK64
        else:
            for byte in v.to_bytes(8, "little"):
                h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return mix64(h)


def hash_rows(rows) -> np.ndarray:
    """``hash_ints`` of every row of an int64 matrix, as a uint64 array.

    FNV-1a runs over all rows at once in wrapping uint64 arithmetic: a word
    column whose values all lie in [0, 256) takes one step, any other column
    one step per little-endian byte column. A matrix of no rows gives no
    hashes.
    """
    rows = np.ascontiguousarray(rows, dtype="<i8")
    words = rows.view(np.uint64)
    small = (words < 256).all(axis=0)
    data = rows.view(np.uint8).reshape(len(rows), 8 * rows.shape[1])
    h = np.full(len(rows), _FNV_OFFSET, dtype=np.uint64)
    prime, prime8 = np.uint64(_FNV_PRIME), np.uint64(_FNV_PRIME8)
    for j in range(rows.shape[1]):
        if small[j]:
            h ^= words[:, j]
            h *= prime8
            continue
        for column in data[:, 8 * j : 8 * j + 8].T:
            h ^= column
            h *= prime
    return mix64(h)
