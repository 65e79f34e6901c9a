"""Frozen reference of the level-by-level multistage decoder.

This is how ``mlcpcm.mlc_system.multistage_decode_batch`` worked before it
decoded each in-phase/quadrature level pair as one decoder call: every level
forms its LLRs from the full demap tables after the previous level's
decision and decodes as its own ``scl_decode_batch`` call. It is kept
verbatim so the differential test in ``tests/test_mlc_system.py`` can
require the paired decoder to reproduce its four outputs exactly. Do not
change it.
"""

from __future__ import annotations

import numpy as np

from mlcpcm.constellation import demap_tables, level_llr_from_tables
from mlcpcm.polar_codec import scl_decode_batch


def multistage_decode_batch(y, noise_var, cons, c, list_size,
                            feedback_override=None):
    """Returns (payloads per level, crc_ok (F, m), frame_ok (F,), coded rows
    (F, m, N))."""
    y = np.asarray(y)
    f, n = y.shape
    tables = demap_tables(c, y, noise_var)
    codes = cons.codes
    prefix = np.zeros((f, n), dtype=np.int64)
    coded = np.zeros((f, cons.m, n), dtype=np.uint8)
    payloads = []
    oks = np.zeros((f, cons.m), dtype=bool)
    for k, code in enumerate(codes):
        llr = level_llr_from_tables(tables, k + 1, prefix)
        pay, cw, ok, _ = scl_decode_batch(llr, code, list_size)
        payloads.append(pay)
        coded[:, k] = cw
        oks[:, k] = ok
        feed = cw
        if feedback_override and k in feedback_override:
            feed = feedback_override[k]
        prefix = (prefix << 1) | feed.astype(np.int64)
    return payloads, oks, oks.all(axis=1), coded
