"""End-to-end multilevel transmitter and multistage receiver.

A frame carries m component polar codewords of length N. Level k's codeword
row supplies bit k (MSB first) of every symbol label, so symbol i is
phi(v_0[i], v_1[i], ..., v_{m-1}[i]). The receiver decodes levels in order:
level k sees LLRs conditioned on the re-encoded hard decisions of levels
0..k-1 (codeword-domain feedback), decodes with CA-SCL, and feeds its own
re-encoded row forward. Encoder and decoder work on batches of frames; a
single frame is a batch of one.

Under the per-axis Gray labelling, even levels ride the in-phase axis and
odd levels the quadrature axis, and a level's LLR depends only on the
decided bits of its own axis. Level 2j + 1 therefore does not read level
2j's decision, and its LLR is formed before that decision is made, with a
zero standing in for it, exactly as it would be after. Both levels of a
pair then decode as one 2F-row call with a code per row block; BPSK's
single level decodes as a group of one.

Each level's LLRs come from ``subtree_llr``: the leaves of the axis
subtree under the level's decided axis prefix, reduced to the two halves
under its bit. Every level, the last of each axis and BPSK's included,
forms them in blocks of frames whose widest subtree leaves fill
_DEMAP_BYTES, and nothing is kept from one level to the next.
"""

from __future__ import annotations

import numpy as np

from .constellation import Constellation, subtree_llr
# not called here; kept in this namespace because bench/tracing.py wraps
# them here and counts a missing name as an absent wrapper
from .constellation import demap_tables, level_llr_from_tables  # noqa: F401
from .construction import CodeConstruction
from .polar_codec import RowBlocks, crc_attach, polar_encode, scl_decode_batch


def mlc_encode_batch(payloads: list[np.ndarray], cons: CodeConstruction,
                     c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Encode a batch of frames; returns (symbols (F, N), coded (F, m, N))."""
    if len(payloads) != cons.m or c.m != cons.m:
        raise ValueError("payload list / constellation do not match construction")
    f = payloads[0].shape[0]
    coded = np.zeros((f, cons.m, cons.n), dtype=np.uint8)
    for k, code in enumerate(cons.codes):
        if payloads[k].shape != (f, code.payload_len):
            raise ValueError(f"level {k} payload shape {payloads[k].shape} != "
                             f"({f}, {code.payload_len})")
        u = np.zeros((f, cons.n), dtype=np.uint8)
        u[:, code.info_set] = crc_attach(payloads[k]) if code.crc_len else payloads[k]
        coded[:, k] = polar_encode(u)
    labels = np.zeros((f, cons.n), dtype=np.int64)
    for k in range(cons.m):  # level 0 is the label MSB
        labels = (labels << 1) | coded[:, k].astype(np.int64)
    return c.points[labels], coded


# leaves of the widest axis subtree formed per subtree_llr call; of 0.25 to
# 4 MiB, 1 MiB formed the LLRs of 256-frame 16QAM to 256QAM batches at
# N = 256 about fastest
_DEMAP_BYTES = 1 << 20


def multistage_decode_batch(y: np.ndarray, noise_var: float | np.ndarray,
                            cons: CodeConstruction, c: Constellation,
                            list_size: int,
                            feedback_override: dict[int, np.ndarray] | None = None,
                            ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Multistage CA-SCL decoding of a batch of received frames.

    Returns (payloads per level, crc_ok (F, m), frame_ok (F,), coded rows
    (F, m, N)). frame_ok is the all-levels CRC verdict (levels without CRC
    report True); simulations judge frames by payload equality instead.
    ``feedback_override`` substitutes given rows for the re-encoded decisions
    when forming the next level's prefix, leaving that level's own outputs
    untouched (for error-propagation analysis).
    """
    y = np.asarray(y, dtype=np.complex128)
    f, n = y.shape
    noise_var = np.broadcast_to(noise_var, y.shape)
    # frames per subtree_llr call: level 0's leaves, one per axis amplitude
    # and symbol, fill _DEMAP_BYTES, and deeper subtrees are narrower
    step = max(_DEMAP_BYTES // (c.amp_by_label.size * n * 8), 1)
    # m label bits; uint8 up to 256QAM
    prefix = np.zeros((f, n), dtype=np.min_scalar_type((1 << c.m) - 1))
    coded = np.zeros((f, cons.m, n), dtype=np.uint8)
    payloads: list[np.ndarray] = []
    oks = np.zeros((f, cons.m), dtype=bool)
    for k in range(0, cons.m, 2):
        # level k + 1 reads only the prefix bits of the other axis, so a
        # zero stands in for level k's decision and the levels of a pair
        # decode as one call of F rows per level
        group = cons.codes[k:k + 2]
        llrs = np.empty((len(group) * f, n))
        for j in range(len(group)):
            out = llrs[j * f:(j + 1) * f]
            for lo in range(0, f, step):
                out[lo:lo + step] = subtree_llr(
                    c, y[lo:lo + step], noise_var[lo:lo + step], k + j + 1,
                    prefix[lo:lo + step] << j)
        pays, cws, ok, _ = scl_decode_batch(
            llrs, RowBlocks(group, (f,) * len(group)), list_size)
        for j, pay in enumerate(pays):
            level = k + j
            payloads.append(pay)
            coded[:, level] = cws[j * f:(j + 1) * f]
            oks[:, level] = ok[j * f:(j + 1) * f]
            feed = coded[:, level]
            if feedback_override and level in feedback_override:
                feed = feedback_override[level]
            prefix = (prefix << 1) | feed.astype(prefix.dtype)
    return payloads, oks, oks.all(axis=1), coded
