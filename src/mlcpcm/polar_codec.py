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
Path state is copied lazily (Tal & Vardy, "List decoding of polar codes",
IEEE T-IT 2015). Each stage's LLR buffer and each stage's left partial-sum
buffer has its own row map: None while the buffer is in path order, else an
int32 array from (frame, path) to the flat row that holds that path's data.
A fork or prune copies no buffer. A buffer in path order takes the
survivors' parent rows as its map, by reference; a stale one composes its
map with them in one gather. Only buffers that are read again before being
rewritten are kept: after the fork at leaf phi these are the LLRs of stage
s + 1 while bit s of phi is 0 and the left sums of stage s while bit s of
phi is 1. Every other buffer is released, which lowers peak memory and
leaves fewer maps to compose. A buffer is gathered into path order only when
the next f/g update or partial-sum step reads it, which per leaf is the
parent of the topmost refreshed stage and the left sums at that stage, so
copying costs O(L N log N) per frame instead of O(L N^2). Bit decisions are
not copied either: each information leaf records (bits, parent path), and
one backtrack at the end recovers every survivor's information bits for the
CRC. The selected path's codeword is polar_encode of its decisions, the same
bits the partial sums would give. Survivors are selected by a stable sort of
the path metrics' int64 bit patterns, which order like the metrics because
these are finite, nonnegative and never -0.0. The outputs are bit-identical
to those of the full-copy decoder kept in tests/scl_reference.py.

Every decoder buffer is stored stage-major, as (width, frame, path). The
f/g halves of a stage are then contiguous leading-axis blocks, partial sums
concatenate along axis 0 and the leaf LLRs are row 0 of stage 0. In a
(frame, path, width) layout the narrow stages split into 1-4 element inner
loops over strided views, which cost numpy up to twice as much per element.
Boxplus on arrays larger than _BLOCK elements runs block by block over the
flattened array, so its seventeen ufunc passes reuse data in cache instead
of each streaming the whole stage through memory. Boxplus is elementwise,
so blocking changes no output bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CRC_LEN = 16
CRC16_POLY = 0x1021  # D^16 + D^12 + D^5 + 1, TS 38.212 gCRC16

# Metric offset that dominates any achievable path metric (clipped LLRs bound
# a path by N * 600) while staying far from float saturation.
_CRC_FAIL_PENALTY = 1e12

# Elements per boxplus block: both inputs, the output and one temporary of
# 2^14 float64 each take 512 KiB, which stays in a typical L2 cache.
_BLOCK = 1 << 14


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


def _crc16_byte_table() -> np.ndarray:
    """Register update of each input byte from a zero register: entry b is
    eight shift steps from register b << 8 with zero input bits."""
    reg = np.arange(256, dtype=np.uint16) << np.uint16(8)
    for _ in range(8):
        reg = (reg << np.uint16(1)) ^ ((reg >> np.uint16(15)) * np.uint16(CRC16_POLY))
    return reg


_CRC16_TABLE = _crc16_byte_table()


def _crc16_register(bits: np.ndarray) -> np.ndarray:
    """Run the gCRC16 shift register over the last axis, MSB-first, zero init.

    Works a byte at a time through a 256-entry table. Each row is left-padded
    with zeros to whole bytes, which a zero register ignores.
    """
    bits = np.asarray(bits)
    pad = -bits.shape[-1] % 8
    if pad:
        widths = [(0, 0)] * (bits.ndim - 1) + [(pad, 0)]
        bits = np.pad(bits, widths)
    data = np.packbits(bits, axis=-1)
    reg = np.zeros(bits.shape[:-1], dtype=np.uint16)
    for j in range(data.shape[-1]):
        reg = (reg << np.uint16(8)) ^ _CRC16_TABLE[(reg >> np.uint16(8)) ^ data[..., j]]
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


def _boxplus(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
             tmp: np.ndarray | None = None) -> np.ndarray:
    """Exact LLR check-node combination ln[(1+e^{a+b})/(e^a+e^b)].

    Evaluates copysign(min(|a|, |b|), a b) + log1p(e^{-|a+b|})
    - log1p(e^{-|a-b|}) one ufunc at a time into two buffers; a and b have
    the same shape. The buffers out and tmp, C-ordered when allocated here,
    may be passed in; the result is written to out.

    The result is bit-identical to the textbook sign(a) sign(b) min(|a|, |b|)
    + ... of earlier releases. The sign of a product is the XOR of the
    operand signs even when it underflows to +-0, so for nonzero a and b
    both first terms are the same +-min(|a|, |b|), infinities included. If a
    or b is +-0, both are a zero, possibly of opposite signs, and the next
    step adds log1p(e^{-|a+b|}), which is either positive, so the zero's
    sign is lost, or +0, and -0 + +0 = +0 like +0 + +0. Only NaN inputs can
    give other bits, and there the result is NaN either way.
    """
    out = np.abs(a, out=out, order="C")
    tmp = np.abs(b, out=tmp, order="C")
    np.minimum(out, tmp, out=out)
    np.multiply(a, b, out=tmp)
    np.copysign(out, tmp, out=out)
    for op in (np.add, np.subtract):  # + log1p(e^{-|a+b|}), - log1p(e^{-|a-b|})
        op(a, b, out=tmp)
        np.abs(tmp, out=tmp)
        np.negative(tmp, out=tmp)
        np.exp(tmp, out=tmp)
        np.log1p(tmp, out=tmp)
        op(out, tmp, out=out)
    return out


def _boxplus_blocked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_boxplus over flat blocks of _BLOCK elements, bit-identical to it.

    Only C-contiguous inputs are blocked, as runs of the flattened arrays
    with a partial last block; other layouts (the channel LLRs read through
    a transposed view) go to _boxplus whole rather than be copied.
    """
    if a.size <= _BLOCK or not (a.flags.c_contiguous and b.flags.c_contiguous):
        return _boxplus(a, b)
    out = np.empty(a.shape)
    flat_a, flat_b, flat_out = a.reshape(-1), b.reshape(-1), out.reshape(-1)
    tmp = np.empty(_BLOCK)
    for r in range(0, a.size, _BLOCK):
        block = slice(r, r + _BLOCK)
        _boxplus(flat_a[block], flat_b[block], flat_out[block], tmp[:a.size - r])
    return out


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
    # parent rows and row maps lie below F L and are stored as int32, which
    # halves the largest bookkeeping arrays
    if frames * list_size >= 1 << 31:
        raise ValueError(f"{frames} frames x list size {list_size} overflows "
                         "the int32 parent rows; decode fewer frames per call")
    stages = n.bit_length() - 1
    frozen = np.ones(n, dtype=bool)
    frozen[code.info_set] = False
    fidx = np.arange(frames)
    col = fidx[:, None]

    # Buffer s < stages holds the LLRs of stage s (2^s per path) and buffer
    # stages + s the completed left-child partial sums of stage s, each
    # stored stage-major with shape (width, F, P') for the path count P' when
    # it was written: the f/g halves of a stage are then contiguous
    # leading-axis blocks, where a (F, P', width) layout would split into
    # short strided inner loops on the narrow stages. maps[i] is None while
    # buffer i is in path order; otherwise path p of frame f reads flat
    # column maps[i][f * P + p] of buffer i reshaped to (width, F P'). A
    # stale buffer is gathered into path order when it is next read. The
    # channel LLRs are path-independent and read through the stage-major
    # view chan.T.
    bufs: list[np.ndarray | None] = [None] * (2 * stages)
    maps: list[np.ndarray | None] = [None] * (2 * stages)
    pm = np.zeros((frames, 1))
    # bit and flat parent row of every path at each information leaf, for
    # the final backtrack; allocated up front, because hundreds of small
    # arrays kept alive through the loop fragment the heap and raise peak RSS
    leaf_bits = np.empty((code.k, frames * list_size), dtype=np.int8)
    leaf_parent = np.empty((code.k, frames * list_size), dtype=np.int32)
    decided = 0

    def store(i: int, value: np.ndarray) -> None:
        bufs[i], maps[i] = value, None

    def aligned(i: int) -> np.ndarray:
        if maps[i] is not None:
            buf = bufs[i]
            flat = buf.reshape(len(buf), -1).take(maps[i], axis=1)
            store(i, flat.reshape(len(buf), frames, -1))
        return bufs[i]

    for phi in range(n):
        # refresh LLR buffers on the stages whose block changed at this leaf
        top = (phi & -phi).bit_length() - 1 if phi else stages
        for s in range(top - 1 if phi == 0 else top, -1, -1):
            half = 1 << s
            above = chan.T[:, :, None] if s == stages - 1 else aligned(s + 1)
            a, b = above[:half], above[half:]
            if phi and s == top:  # right child: g update with left sums
                u = aligned(stages + s)
                g = np.subtract(1, 2 * u, dtype=np.float64)  # 1 - 2u, exact
                g *= a
                store(s, np.add(b, g, out=g))
            else:  # left child: f update
                store(s, _boxplus_blocked(a, b))

        paths = pm.shape[1]
        leaf = bufs[0][0] if stages else chan[:, None, 0].repeat(paths, 1)
        if frozen[phi]:
            pm = pm + np.maximum(-leaf, 0.0)
            bits = np.zeros(leaf.shape, dtype=np.int8)
        else:
            # child c of frame f is path c >> 1 taking bit c & 1, so the
            # stable sort below breaks metric ties by smaller path index
            pm2 = np.empty((frames, paths, 2))
            np.add(pm, np.maximum(-leaf, 0.0), out=pm2[:, :, 0])
            np.add(pm, np.maximum(leaf, 0.0), out=pm2[:, :, 1])
            pm2 = pm2.reshape(frames, -1)
            if 2 * paths <= list_size:  # keep every child
                child = np.arange(frames * 2 * paths).reshape(frames, -1)
            else:
                # Metrics start at +0.0 and only add max(+-leaf, 0.0), so
                # for finite LLRs they are finite, nonnegative and never
                # -0.0 (+0 + -0 is +0). Their int64 bit patterns then order exactly like
                # the floats, ties stay ties, and the stable integer sort
                # returns the same permutation faster.
                sel = np.argsort(pm2.view(np.int64), axis=1, kind="stable")
                child = sel[:, :list_size] + 2 * paths * col
            pm = pm2.ravel().take(child)
            bits = (child & 1).astype(np.int8)
            parent = (child >> 1).astype(np.int32).ravel()
            # After the fork at leaf phi, only two kinds of stale buffer are
            # read again before being rewritten: the LLRs of stage s + 1
            # while bit s of phi is 0 (the g update of stage s is still
            # ahead) and the left sums of stage s while bit s of phi is 1.
            # Every other buffer, stage 0's LLRs always, is released.
            for s in range(stages):
                for i, live in ((s, s and not (phi >> (s - 1)) & 1),
                                (stages + s, (phi >> s) & 1)):
                    if not live:
                        bufs[i] = maps[i] = None
                    elif maps[i] is None:
                        maps[i] = parent
                    else:
                        maps[i] = maps[i].take(parent)
            leaf_bits[decided, :parent.size] = bits.ravel()
            leaf_parent[decided, :parent.size] = parent
            decided += 1

        # propagate partial sums while closing right children; the last leaf
        # closes the root, whose sums are the codeword re-encoded below
        cur = bits[None]
        s = 0
        while (phi >> s) & 1:
            cur = np.concatenate([aligned(stages + s) ^ cur, cur], axis=0)
            s += 1
        if s < stages:
            store(stages + s, cur)

    # backtrack every surviving path through its forks to its decisions
    paths = pm.shape[1]
    info = np.empty((code.k, frames * paths), dtype=np.int8)
    path = np.arange(frames * paths)
    for j in range(code.k - 1, -1, -1):
        leaf_bits[j].take(path, out=info[j])
        path = leaf_parent[j].take(path)
    info = info.T.reshape(frames, paths, code.k)
    if code.crc_len:
        ok = _crc16_register(info) == 0
        key = np.where(ok, pm, pm + _CRC_FAIL_PENALTY)
    else:
        ok = np.ones(pm.shape, dtype=bool)
        key = pm
    best = np.argmin(key, axis=1)  # first minimum: smaller path index wins
    chosen = info[fidx, best]
    u = np.zeros((frames, n), dtype=np.int8)
    u[:, code.info_set] = chosen
    return (chosen[:, :code.payload_len], polar_encode(u),
            ok[fidx, best], pm[fidx, best])
