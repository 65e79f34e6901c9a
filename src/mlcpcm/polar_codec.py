"""Binary polar codec: encoder, CRC-16, and CRC-aided SC list decoding.

The encoder computes x = u G_N over GF(2) with G_N the n-fold Kronecker power
of [[1,0],[1,1]] in natural bit order (no bit reversal), as an in-place
butterfly. The list decoder works in the LLR domain with the hard-decision
penalty path metric: a path pays |L| whenever its bit decision contradicts the
sign of the leaf LLR, so metrics are nonnegative and nondecreasing. Ties are
broken by smaller path index. Frozen bits are zero. With a 16-bit CRC the
final path is the best-metric CRC-passing survivor, falling back to the best
metric overall (crc_ok False) when none passes; without CRC the best metric
wins. The decoder also returns the re-encoded codeword of the selected path,
which multistage decoding feeds back as demapping prefix.

All decoder state is vectorized over a batch of independent frames and over
the list dimension, so Monte Carlo runs decode hundreds of frames per pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CRC_LEN = 16
CRC16_POLY = 0x1021  # D^16 + D^12 + D^5 + 1, TS 38.212 gCRC16

# Metric offset that dominates any achievable path metric (clipped LLRs bound
# a path by N * 600) while staying far from float saturation.
_CRC_FAIL_PENALTY = 1e12


def crc_len_for_k(k: int) -> int:
    """Per-component CRC policy: 16-bit CRC only when it fits inside K_k."""
    return CRC_LEN if k > CRC_LEN else 0


@dataclass(frozen=True, eq=False)
class ComponentCode:
    """One component polar code: block length, info positions, CRC length."""

    n: int
    info_set: np.ndarray  # sorted ascending, 0-based indices into [0, n)
    crc_len: int = 0

    def __post_init__(self):
        if self.n & (self.n - 1) or self.n < 1:
            raise ValueError(f"block length {self.n} is not a power of two")
        info = np.asarray(self.info_set, dtype=np.int64)
        if info.size and (np.any(np.diff(info) <= 0) or info[0] < 0
                          or info[-1] >= self.n):
            raise ValueError("info_set must be sorted, unique, within [0, n)")
        object.__setattr__(self, "info_set", info)
        if self.payload_len < 0:
            raise ValueError("crc_len exceeds the information budget")

    @property
    def k(self) -> int:
        return int(self.info_set.size)

    @property
    def payload_len(self) -> int:
        return self.k - self.crc_len


def polar_encode(u: np.ndarray) -> np.ndarray:
    """x = u G_N over GF(2), butterfly over the last axis. Self-inverse."""
    x = np.array(u, dtype=np.int8, copy=True)
    n = x.shape[-1]
    if n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    h = 1
    while h < n:
        view = x.reshape(x.shape[:-1] + (n // (2 * h), 2, h))
        view[..., 0, :] ^= view[..., 1, :]
        h *= 2
    return x


def _crc16_register(bits: np.ndarray) -> np.ndarray:
    """Run the gCRC16 shift register over the last axis, MSB-first, zero init."""
    bits = np.asarray(bits)
    reg = np.zeros(bits.shape[:-1], dtype=np.uint16)
    for i in range(bits.shape[-1]):
        fb = (reg >> 15) ^ bits[..., i].astype(np.uint16)
        reg = ((reg << 1) & np.uint16(0xFFFF)) ^ (fb * np.uint16(CRC16_POLY))
    return reg


def crc_attach(payload: np.ndarray) -> np.ndarray:
    """Append the 16 CRC parity bits (register MSB first) to payload rows."""
    payload = np.asarray(payload, dtype=np.int8)
    reg = _crc16_register(payload)
    shifts = np.arange(CRC_LEN - 1, -1, -1, dtype=np.uint16)
    parity = ((reg[..., None] >> shifts) & 1).astype(np.int8)
    return np.concatenate([payload, parity], axis=-1)


def crc_check(bits: np.ndarray) -> bool | np.ndarray:
    """True where the trailing 16 bits are the CRC of the leading ones."""
    ok = _crc16_register(np.asarray(bits, dtype=np.int8)) == 0
    return bool(ok) if ok.ndim == 0 else ok


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
