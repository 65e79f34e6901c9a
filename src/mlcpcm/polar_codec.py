"""Binary polar codec: encoder, CRC-16, and CRC-aided SC list decoding.

The encoder computes x = u G_N over GF(2) with G_N the n-fold Kronecker power
of [[1,0],[1,1]] in natural bit order (no bit reversal), as an in-place
butterfly. The list decoder works in the LLR domain with the hard-decision
penalty path metric: a path pays |L| whenever its bit decision contradicts the
sign of the leaf LLR, so metrics are nonnegative and nondecreasing. Ties are
broken by smaller path index. Frozen bits are zero. With a 16-bit CRC the
final path is the best-metric CRC-passing survivor, falling back to the best
metric overall (crc_ok False) when none passes; without CRC the best metric
wins. The fallback ranks a failing path on its metric plus 1e12, where
doubles lie 2^-13 apart, so failing metrics closer than that tie and go to
the smaller path index. A path metric is at most 300 N^2 (N leaves of at
most N * 300 each), so a passing path outranks every failing one only up to
N = 2^15. The decoder also returns the re-encoded codeword of the selected
path, which multistage decoding feeds back as demapping prefix.

All decoder state is vectorized over a batch of independent frames and over
the list dimension, so Monte Carlo runs decode hundreds of frames per pass.
Path state is copied lazily (Tal & Vardy, "List decoding of polar codes",
IEEE T-IT 2015). Each stage's LLR buffer and each stage's left partial-sum
buffer has its own row map: None while the buffer is in path order, else an
int32 array from (frame, path) to the flat row that holds that path's data.
A fork or prune copies no buffer. A buffer in path order takes the
survivors' parent rows as its map, by reference; a stale one composes its
map with them in one gather. A buffer written while the list held one path
needs no map at all: every later path of its frame descends from that path,
so it is read as a broadcast over the paths, like the channel LLRs. Each
buffer is released by the statement that reads it last (a stage's LLRs by
the g update of the stage below, stage 0's by the leaf's metric update, a
stage's left sums by the partial-sum close), which lowers peak memory, and a
fork composes the maps of only the buffers still held. A
buffer is gathered into path order only when the next f/g update or
partial-sum step reads it, which per leaf is the parent of the topmost
refreshed stage and the left sums at that stage, so copying costs
O(L N log N) per frame instead of O(L N^2). The right child of the top
stage, N/2 LLRs per path, is never stored: its only readers, the updates of
the stage below at leaves N/2 and 3N/4, form the rows each block reads from
the channel LLRs and the top stage's left sums. Bit decisions are not
copied either: each fork records the selected child of every surviving
path, one byte each up to L = 128, which holds both its parent path and its
bit, and one backtrack at the end recovers every survivor's information bits
for the CRC. The selected path's codeword is polar_encode of its decisions,
the same bits the partial sums would give. The survivors of a full list are
selected by a stable sort of the path metrics' int64 bit patterns, which
order like the metrics because these are finite, nonnegative and never
-0.0. The outputs are bit-identical to those of the full-copy decoder kept
in tests/scl_reference.py.

Every decoder buffer is stored stage-major, as (width, frame, path). The
f/g halves of a stage are then contiguous leading-axis blocks, partial sums
concatenate along axis 0 and the leaf LLRs are row 0 of stage 0. In a
(frame, path, width) layout the narrow stages split into 1-4 element inner
loops over strided views, which cost numpy up to twice as much per element.
Every f and g update, at every stage, runs one loop over blocks of rows
of its output, about _BLOCK elements each. A block reads the matching rows
of the two halves of the stage's input (the stage above, the channel LLRs'
transposed view, or rows of the top stage's right child that it forms), so
its seventeen boxplus or three g ufunc passes reuse data in cache instead
of each streaming the whole stage through memory. Both rules are
elementwise, so blocking changes no output bit.

The rows of one call may come in blocks with their own component codes
(RowBlocks), so each row has its own frozen set and CRC flag. The decoder
forks at the union of the blocks' information leaves, and the list stays
rectangular at the largest path count: a row with fewer paths of its own
keeps them first and pads with junk paths at metric +inf. Each block's real
path count before every leaf, and the leaves where its list is full, are
computed before the first leaf. At each fork one stable argsort over an
int64 key per child selects the survivors of every row. A row whose list is
full keys its children by the metrics' bit patterns. Any other row keys them
by rank: in child order where its list keeps every child, and bit-0 children
first where it is frozen at the leaf, whose bit-1 children take metric +inf
and join the junk. Each row therefore gets exactly the outputs of decoding
it alone; a junk path never outranks a real one, and its +inf metric meets
only additions of finite values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CRC_LEN = 16
CRC16_POLY = 0x1021  # D^16 + D^12 + D^5 + 1, TS 38.212 gCRC16

# Metric offset of a path that fails the CRC, far from float saturation. g
# updates add magnitudes, so a leaf LLR reaches N * 300 (LLR_CLIP) and a path
# metric 300 * N^2, which is below the offset only up to N = 2^15. Near
# 1e12 doubles lie 2^-13 apart: failing metrics closer than that tie after
# the offset, and argmin gives the tie to the smaller path index.
_CRC_FAIL_PENALTY = 1e12

# Output elements per block of a stage update: for boxplus, both inputs, the
# output and one temporary of 2^14 float64 each take 512 KiB, which stays in
# a typical L2 cache.
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
        info = np.asarray(self.info_set)
        if info.size and info.dtype.kind not in "iu":  # a cast would truncate
            raise ValueError(f"info_set must hold integers, got {info.dtype}")
        info = info.astype(np.int64, copy=False)
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


def _g(a: np.ndarray, b: np.ndarray, u: np.ndarray,
       out: np.ndarray | None = None) -> np.ndarray:
    """Right-child LLRs b + (1 - 2u) a, with a and b broadcast over u's paths."""
    g = np.subtract(1, 2 * u, dtype=np.float64, out=out)  # 1 - 2u, exact
    g *= a
    return np.add(b, g, out=g)


def _stage_update(rows, shape: tuple[int, int, int],
                  u: np.ndarray | None = None) -> np.ndarray:
    """One f or g update of a decoder stage, in blocks of its output rows.

    rows(lo, hi) gives rows lo:hi of the stage's input, whose halves are a
    and b. The result, of shape (half, F, P), is boxplus(a, b), the f
    update, or with the left sums u the g update _g(a, b, u). Each block of
    about _BLOCK output elements, at least one row, reads the matching rows
    of a and b; a stage of at most _BLOCK elements is updated whole.
    """
    half, frames, paths = shape
    if half * frames * paths <= _BLOCK:
        a, b = rows(0, half), rows(half, 2 * half)
        return _boxplus(a, b) if u is None else _g(a, b, u)
    step = max(_BLOCK // (frames * paths), 1)
    out = np.empty(shape)
    tmp = np.empty((step, frames, paths)) if u is None else None
    for lo in range(0, half, step):
        hi = min(lo + step, half)
        a, b = rows(lo, hi), rows(half + lo, half + hi)
        if u is None:
            _boxplus(a, b, out[lo:hi], tmp[:hi - lo])
        else:
            _g(a, b, u[lo:hi], out[lo:hi])
    return out


@dataclass(frozen=True, eq=False)
class RowBlocks:
    """Consecutive blocks of LLR rows that decode in one call, each block
    with its own component code: the first rows[0] rows use codes[0], the
    next rows[1] rows codes[1], and so on. All codes share one block length.
    """

    codes: tuple[ComponentCode, ...]
    rows: tuple[int, ...]

    def __post_init__(self):
        codes, rows = tuple(self.codes), tuple(int(r) for r in self.rows)
        if not codes or len(codes) != len(rows):
            raise ValueError("need one row count per code and at least one code")
        if min(rows) < 0:
            raise ValueError("row counts must be nonnegative")
        if len({code.n for code in codes}) != 1:
            raise ValueError("the codes of one call must share a block length")
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.codes[0].n

    @property
    def k(self) -> float:
        """Mean information bits per row, so rows times k is the call's total."""
        total = sum(self.rows)
        bits = sum(code.k * r for code, r in zip(self.codes, self.rows))
        return bits / total if total else 0.0

    @property
    def crc_len(self) -> int:
        """The longest CRC of any block; 0 when no block carries one."""
        return max(code.crc_len for code in self.codes)


def scl_decode_batch(llrs: np.ndarray, code: ComponentCode | RowBlocks,
                     list_size: int) -> tuple:
    """Decode a batch of frames; returns (payloads, codewords, crc_ok, metrics).

    llrs has shape (F, N); codewords are (F, N) and crc_ok and metrics (F,).
    With one ComponentCode, payloads is an (F, payload_len) array. With
    RowBlocks, each block of rows decodes with its own code and payloads is
    a tuple of one (rows, payload_len) array per block. Either way every row
    gets exactly the outputs of decoding it alone.

    The list stays rectangular: the decoder forks at the union of the
    blocks' information leaves, and a row whose own list is shorter keeps
    its real paths first and pads with junk paths at metric +inf. A junk
    path never outranks a real one, so it is never selected. Every fork
    selects the survivors of all rows with one stable argsort of per-child
    int64 keys: the metric's bit pattern where the row's list is full, else
    the child's rank. An empty batch (F = 0) gives empty outputs.
    """
    chan = np.asarray(llrs, dtype=np.float64)
    frames, n = chan.shape
    blocks = code if isinstance(code, RowBlocks) else RowBlocks((code,), (frames,))
    if n != blocks.n:
        raise ValueError(f"LLR length {n} != code length {blocks.n}")
    if sum(blocks.rows) != frames:
        raise ValueError(f"{frames} LLR rows != {sum(blocks.rows)} block rows")
    if list_size < 1 or (list_size & (list_size - 1)):
        raise ValueError("list size must be a power of two >= 1")
    # finite LLRs keep every real path metric finite, which the survivor
    # sort on the metrics' bit patterns relies on
    if not np.isfinite(chan).all():
        raise ValueError("LLRs must be finite")
    # parent rows and row maps lie below F L and are stored as int32, which
    # halves the largest bookkeeping arrays
    if frames * list_size >= 1 << 31:
        raise ValueError(f"{frames} frames x list size {list_size} overflows "
                         "the int32 parent rows; decode fewer frames per call")
    stages = n.bit_length() - 1
    edges = np.cumsum((0,) + blocks.rows).tolist()
    spans = list(zip(edges[:-1], edges[1:]))
    is_info = np.zeros((len(blocks.codes), n), dtype=bool)
    for i, block_code in enumerate(blocks.codes):
        is_info[i, block_code.info_set] = True
    frozen = ~is_info.any(axis=0)
    forks = np.flatnonzero(~frozen)  # the union of the information leaves
    # each block's real path count before each leaf, 2^(its information
    # leaves so far) up to the list size, with the exponent clamped where
    # 2^e > L so that it cannot overflow; its list is full at an
    # information leaf where that count is the list size
    before = np.cumsum(is_info, axis=1) - is_info
    real = np.minimum(1 << np.minimum(before, int(list_size).bit_length()),
                      list_size)
    full = is_info & (real == list_size)
    all_full = full.all(axis=0).tolist()  # every block's list full, per leaf
    block = np.repeat(np.arange(len(spans)), blocks.rows)  # block of each row
    fidx = np.arange(frames)
    col = fidx[:, None]

    # Buffer s < stages holds the LLRs of stage s (2^s per path) and buffer
    # stages + s the completed left-child partial sums of stage s, each
    # stored stage-major with shape (width, F, P') for the path count P' when
    # it was written: the f/g halves of a stage are then contiguous
    # leading-axis blocks, where a (F, P', width) layout would split into
    # short strided inner loops on the narrow stages. maps[i] is None while
    # buffer i is in path order; otherwise path p of frame f reads flat
    # column maps[i][f, p] of buffer i reshaped to (width, F P'). A stale
    # buffer is gathered into path order when it is next read, and its last
    # reader releases it with store(i, None). A buffer of one path (P' = 1)
    # holds the row of every later path of its frame and is read as a
    # broadcast without a map, like the channel LLRs, which are
    # path-independent and read through the stage-major view chan_t.
    chan_t = chan.T[:, :, None]
    bufs: list[np.ndarray | None] = [None] * (2 * stages)
    maps: list[np.ndarray | None] = [None] * (2 * stages)
    pm = np.zeros((frames, 1))
    # the selected child of every path at each fork and the list width after
    # it, for the final backtrack; allocated up front, because hundreds of
    # small arrays kept alive through the loop fragment the heap and raise
    # peak RSS
    leaf_sel = np.empty((forks.size, frames * list_size),
                        dtype=np.min_scalar_type(2 * list_size - 1))
    widths = []

    def store(i: int, value: np.ndarray) -> None:
        bufs[i], maps[i] = value, None

    def aligned(i: int) -> np.ndarray:
        if maps[i] is not None:
            buf = bufs[i]
            store(i, buf.reshape(len(buf), -1).take(maps[i], axis=1))
        return bufs[i]

    for phi in range(n):
        # refresh LLR buffers on the stages whose block changed at this leaf
        top = (phi & -phi).bit_length() - 1 if phi else stages
        for s in range(top - 1 if phi == 0 else top, -1, -1):
            right = phi and s == top  # g update with left sums, else f
            if s == stages - 1 and phi and stages > 1:
                continue  # the top stage's right child is never stored
            # the stage's input is the stage above, or the channel LLRs at
            # the top stage; below the top stage in the right half of the
            # tree, it is the top stage's right child, whose rows each block
            # forms from the channel LLRs and the top stage's left sums, at
            # the path count of those sums, which may be one where u has P
            quarter = s == stages - 2 and phi >= n // 2
            held = 2 * stages - 1 if quarter else s + 1
            above = chan_t if s == stages - 1 else aligned(held)
            if quarter:
                rows = lambda lo, hi: _g(chan_t[lo:hi], chan_t[n // 2 + lo:n // 2 + hi],
                                         above[lo:hi])
            else:
                rows = lambda lo, hi: above[lo:hi]
            u = aligned(stages + s) if right else None
            shape = (1 << s, frames, (above if u is None else u).shape[-1])
            store(s, _stage_update(rows, shape, u))
            if right and s < stages - 1:
                store(held, None)  # a g update is the last reader of its input

        paths = pm.shape[1]
        if stages:
            leaf = bufs[0][0]
            store(0, None)
        else:
            leaf = chan[:, None, 0].repeat(paths, 1)
        if frozen[phi]:
            pm = pm - np.minimum(leaf, 0.0)
            bits = np.zeros(leaf.shape, dtype=np.int8)
        else:
            # child c of frame f is path c >> 1 taking bit c & 1, and each
            # row keeps the children of its smallest keys: the metric's bit
            # pattern where its list is full, else the child's rank. Full
            # lists hold only real paths, whose metrics start at +0.0 and
            # add max(leaf, 0.0) or subtract min(leaf, 0.0), so they are
            # finite, nonnegative and never -0.0: their bit patterns order
            # like the floats, and the stable sort breaks ties by smaller
            # path index.
            pm2 = np.empty((frames, paths, 2))
            np.subtract(pm, np.minimum(leaf, 0.0), out=pm2[:, :, 0])
            np.add(pm, np.maximum(leaf, 0.0), out=pm2[:, :, 1])
            keys = pm2.reshape(frames, 2 * paths).view(np.int64)
            if not all_full[phi]:
                # a row frozen here ranks its r real paths' bit-0 children
                # first, and their bit-1 children join the junk at +inf; a
                # row that keeps every child ranks them in order (r = 0)
                frozen_row = ~is_info[block, phi]
                pm2[frozen_row, :, 1] = np.inf
                r = np.where(frozen_row, real[block, phi], 0)[:, None]
                c = np.arange(2 * paths)
                rank = np.where(c < 2 * r, (c & 1) * r + (c >> 1), c)
                keys = np.where(full[block, phi][:, None], keys, rank)
            width = min(2 * paths, list_size)
            sel = keys.argsort(axis=1, kind="stable")[:, :width]
            record = leaf_sel[len(widths), :sel.size].reshape(sel.shape)
            record[...] = sel
            widths.append(width)
            child = sel + 2 * paths * col
            pm = pm2.reshape(-1).take(child)
            bits = (record & 1).astype(np.int8)
            parent = (child >> 1).astype(np.int32)
            # every buffer still held is read again; one of one path needs
            # no map
            for i, buf in enumerate(bufs):
                if maps[i] is not None:
                    maps[i] = maps[i].take(parent)
                elif buf is not None and buf.shape[-1] > 1:
                    maps[i] = parent

        if phi == n - 1:
            break  # the root's sums are the codeword, re-encoded below
        # propagate partial sums while closing right children
        cur = bits[None]
        s = 0
        while (phi >> s) & 1:
            cur = np.concatenate([aligned(stages + s) ^ cur, cur], axis=0)
            store(stages + s, None)
            s += 1
        if s < stages:
            store(stages + s, cur)

    bufs.clear()  # no stage buffer is read again
    # backtrack every surviving path through its forks to its decisions
    # along the selected children: child c of a fork is path c >> 1 of the
    # list before it, taking bit c & 1
    paths = pm.shape[1]
    picked = np.empty((forks.size, frames * paths), dtype=leaf_sel.dtype)
    frame = np.repeat(fidx, paths)
    start = {w: frame * w for w in set(widths)}  # each frame's first child
    row = np.arange(frames * paths)
    for j in range(forks.size - 1, -1, -1):
        leaf_sel[j].take(row, out=picked[j])
        if j:
            np.add(start[widths[j - 1]], picked[j] >> 1, out=row)
    decisions = np.empty((frames * paths, forks.size), dtype=np.int8)
    np.bitwise_and(picked.T, 1, out=decisions, casting="unsafe")
    decisions = decisions.reshape(frames, paths, forks.size)
    # per block: its own decisions, CRC and best path; a junk path's +inf
    # metric stays +inf with the CRC penalty and never wins
    ok = np.ones(pm.shape, dtype=bool)
    best = np.empty(frames, dtype=np.intp)
    u = np.zeros((frames, n), dtype=np.int8)
    payloads = []
    for (lo, hi), block_code in zip(spans, blocks.codes):
        info = decisions[lo:hi]
        if block_code.k < forks.size:
            info = info[:, :, np.searchsorted(forks, block_code.info_set)]
        key = pm[lo:hi]
        if block_code.crc_len:
            ok[lo:hi] = _crc16_register(info) == 0
            key = np.where(ok[lo:hi], key, key + _CRC_FAIL_PENALTY)
        best[lo:hi] = np.argmin(key, axis=1)  # first minimum: smaller path wins
        chosen = info[fidx[:hi - lo], best[lo:hi]]
        u[lo:hi, block_code.info_set] = chosen
        payloads.append(chosen[:, :block_code.payload_len])
    return ((tuple(payloads) if isinstance(code, RowBlocks) else payloads[0]),
            polar_encode(u), ok[fidx, best], pm[fidx, best])
