"""Frozen reference demapper for the differential tests.

This is the generic full-label demapper that ``mlcpcm.constellation`` used
before its per-axis rewrite, kept verbatim. It forms the 2^m complex
distances of every received symbol and a 2^(m+1)-entry log-sum-exp tree over
the full labels, so it needs no product structure and is easy to check by
reading. Do not change it: ``tests/test_constellation.py`` requires the
library demapper to reproduce its LLRs, and ``tests/test_mp_analysis.py``
reads full-label prefix densities from its tables.

Next to it sit the label oracles the tests read and the library does not:
the Gray code, the bit-vector mapper and the label unpacker.
"""

from __future__ import annotations

import numpy as np

from mlcpcm.constellation import LLR_CLIP, Constellation, labels_from_bits


def gray_code(j: int | np.ndarray) -> int | np.ndarray:
    """Binary-reflected Gray code of rank j."""
    return j ^ (j >> 1)


def map_bits(c: Constellation, bits: np.ndarray) -> complex:
    """Map an m-bit label (b_1, ..., b_m) to its constellation point."""
    bits = np.asarray(bits)
    if bits.shape[-1] != c.m:
        raise ValueError(f"expected {c.m} bits, got {bits.shape[-1]}")
    lab = labels_from_bits(bits, c.m)
    return c.points[lab]


def bits_from_labels(lab: np.ndarray, m: int) -> np.ndarray:
    """Unpack integer labels into bit vectors (..., m), b_1 first."""
    lab = np.asarray(lab)
    shifts = np.arange(m - 1, -1, -1)
    return ((lab[..., None] >> shifts) & 1).astype(np.int8)


def demap_tables(c: Constellation, y: np.ndarray,
                 noise_var: float | np.ndarray) -> list[np.ndarray]:
    """Per-depth log-likelihood tables for all bit levels of received symbols.

    Returns T[0..m] where T[d] has shape y.shape + (2^d,) and
    T[d][..., p] = ln sum_{labels lab with first d bits == p} exp(-|y - x_lab|^2 / N0).
    Level-k LLRs and the mixture densities of every prefix are slices of these
    tables; they are computed once per received block and reused across levels.
    noise_var may be an array broadcastable against y (per-frame values).
    """
    y = np.asarray(y, dtype=np.complex128)
    d2 = np.abs(y[..., None] - c.points) ** 2
    tables = [None] * (c.m + 1)
    t = -d2 / np.asarray(noise_var, dtype=np.float64)[..., None]
    tables[c.m] = t
    for depth in range(c.m - 1, -1, -1):
        t = np.logaddexp(t[..., 0::2], t[..., 1::2])
        tables[depth] = t
    return tables


def level_llr_from_tables(tables: list[np.ndarray], k: int,
                          prefix_labels: np.ndarray) -> np.ndarray:
    """LLR of bit level k (1-based) given per-symbol integer prefix labels."""
    t = tables[k]
    num = np.take_along_axis(t, (2 * prefix_labels)[..., None], axis=-1)[..., 0]
    den = np.take_along_axis(t, (2 * prefix_labels + 1)[..., None], axis=-1)[..., 0]
    return np.clip(num - den, -LLR_CLIP, LLR_CLIP)
