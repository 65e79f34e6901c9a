"""Frozen reference CA-SCL decoder for the differential test.

This is the full-state-gather list decoder that ``mlcpcm.polar_codec`` used
before its lazy-copy rewrite, kept verbatim with the helpers it calls. Every
fork or prune copies each path's whole LLR tree, left partial sums and
decisions, which makes it slow but easy to check by reading. Do not change
it: ``tests/test_polar_codec.py`` requires the library decoder to reproduce
its four outputs exactly.
"""

from __future__ import annotations

import numpy as np

from mlcpcm.polar_codec import ComponentCode

CRC16_POLY = 0x1021  # D^16 + D^12 + D^5 + 1, TS 38.212 gCRC16

# Metric offset that dominates any achievable path metric (clipped LLRs bound
# a path by N * 600) while staying far from float saturation.
_CRC_FAIL_PENALTY = 1e12


def _crc16_register(bits: np.ndarray) -> np.ndarray:
    """Run the gCRC16 shift register over the last axis, MSB-first, zero init."""
    bits = np.asarray(bits)
    reg = np.zeros(bits.shape[:-1], dtype=np.uint16)
    for i in range(bits.shape[-1]):
        fb = (reg >> 15) ^ bits[..., i].astype(np.uint16)
        reg = ((reg << 1) & np.uint16(0xFFFF)) ^ (fb * np.uint16(CRC16_POLY))
    return reg


def _boxplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact LLR check-node combination ln[(1+e^{a+b})/(e^a+e^b)]."""
    return (np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
            + np.log1p(np.exp(-np.abs(a + b)))
            - np.log1p(np.exp(-np.abs(a - b))))


def scl_decode_batch(llrs: np.ndarray, code: ComponentCode,
                     list_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode a batch of frames; returns (payloads, codewords, crc_ok, metrics).

    llrs has shape (F, N). Every frame follows the same fork/prune schedule, so
    the list dimension stays rectangular and all updates are array ops.
    """
    chan = np.asarray(llrs, dtype=np.float64)
    frames, n = chan.shape
    if n != code.n:
        raise ValueError(f"LLR length {n} != code length {code.n}")
    if list_size < 1 or (list_size & (list_size - 1)):
        raise ValueError("list size must be a power of two >= 1")
    stages = n.bit_length() - 1
    frozen = np.ones(n, dtype=bool)
    frozen[code.info_set] = False

    # Per-path state. The LLR tree keeps one active buffer per stage below the
    # channel: stage s occupies [2^s - 1, 2^{s+1} - 1) for s < stages. The
    # channel LLRs are path-independent and stay out of the forked state.
    # bleft keeps the completed left-child partial sums per stage s < stages.
    tree = np.zeros((frames, 1, n - 1))
    bleft = np.zeros((frames, 1, n - 1), dtype=np.int8)
    udec = np.zeros((frames, 1, n), dtype=np.int8)
    pm = np.zeros((frames, 1))
    xhat = np.zeros((frames, 1, n), dtype=np.int8)
    fidx = np.arange(frames)

    for phi in range(n):
        # refresh LLR buffers on the stages whose block changed at this leaf
        top = (phi & -phi).bit_length() - 1 if phi else stages
        for s in range(top - 1 if phi == 0 else top, -1, -1):
            half = 1 << s
            if s == stages - 1:
                a = chan[:, None, :half]
                b = chan[:, None, half:]
            else:
                po = 2 * half - 1  # parent stage offset
                a = tree[:, :, po:po + half]
                b = tree[:, :, po + half:po + 2 * half]
            if phi and s == top:  # right child: g update with left sums
                u = bleft[:, :, half - 1:2 * half - 1]
                tree[:, :, half - 1:half - 1 + half] = b + (1 - 2 * u) * a
            else:  # left child: f update
                tree[:, :, half - 1:half - 1 + half] = _boxplus(a, b)

        leaf = tree[:, :, 0] if stages else chan[:, None, 0].repeat(pm.shape[1], 1)
        if frozen[phi]:
            pm = pm + np.maximum(-leaf, 0.0)
            bits = np.zeros(leaf.shape, dtype=np.int8)
        else:
            paths = tree.shape[1]
            # children ordered (parent 0: bit 0, bit 1, parent 1: ...) so the
            # stable sort below breaks metric ties by smaller path index
            pm2 = np.stack([pm + np.maximum(-leaf, 0.0),
                            pm + np.maximum(leaf, 0.0)], axis=2).reshape(frames, -1)
            if 2 * paths <= list_size:
                bits = np.tile(np.array([0, 1] * paths, dtype=np.int8), (frames, 1))
                pm = pm2
                tree = np.repeat(tree, 2, axis=1)
                bleft = np.repeat(bleft, 2, axis=1)
                udec = np.repeat(udec, 2, axis=1)
            else:
                sel = np.argsort(pm2, axis=1, kind="stable")[:, :list_size]
                parent = sel >> 1
                bits = (sel & 1).astype(np.int8)
                col = fidx[:, None]
                pm = pm2[col, sel]
                tree = tree[col, parent]
                bleft = bleft[col, parent]
                udec = udec[col, parent]
        udec[:, :, phi] = bits

        # propagate partial sums while closing right children
        cur = bits[:, :, None]
        s = 0
        while (phi >> s) & 1:
            half = 1 << s
            left = bleft[:, :, half - 1:2 * half - 1]
            cur = np.concatenate([left ^ cur, cur], axis=2)
            s += 1
        if s < stages:
            half = 1 << s
            bleft[:, :, half - 1:half - 1 + half] = cur
        else:
            xhat = cur  # phi == n-1: full re-encoded codewords

    info = udec[:, :, code.info_set]  # (F, P, K)
    if code.crc_len:
        ok = _crc16_register(info) == 0
        key = np.where(ok, pm, pm + _CRC_FAIL_PENALTY)
    else:
        ok = np.ones(pm.shape, dtype=bool)
        key = pm
    best = np.argmin(key, axis=1)  # first minimum: smaller path index wins
    payload = info[fidx, best, :code.payload_len]
    return (payload, xhat[fidx, best], ok[fidx, best], pm[fidx, best])
