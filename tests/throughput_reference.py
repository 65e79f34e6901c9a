"""Frozen reference of the per-chunk throughput simulation.

This is how ``mlcpcm.sim.run_throughput`` worked before its frame scheduler:
each mean-SNR point is cut into chunks of 256 frames, and each chunk into
groups of frames that picked the same MCS entry; every group decodes as its
own batch at the point's scalar SNR (GA frames decode singly). It is kept
verbatim, with the fading branch of the scalar-SNR ``_frame_errors`` it
called, so the differential test in ``tests/test_sim.py`` can require the
scheduler to reproduce its (value, blocks, errors) exactly. Do not change it.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from mlcpcm.constellation import build_constellation
from mlcpcm.mlc_system import mlc_encode_batch, multistage_decode_batch
from mlcpcm.mp_analysis import SNR_CLIP_DB
from mlcpcm.sim import (SimConfig, SimPoint, _select_mcs, awgn_transmit,
                        build_construction, frame_rng)


def _frame_errors(cons, c, list_size, snr_db, rngs, gains):
    lens = [code.payload_len for code in cons.codes]
    payloads = [np.empty((len(rngs), pk), dtype=np.uint8) for pk in lens]
    for i, rng in enumerate(rngs):
        for k, pk in enumerate(lens):
            payloads[k][i] = rng.integers(0, 2, pk, dtype=np.uint8)
    symbols, _ = mlc_encode_batch(payloads, cons, c)
    symbols = gains[:, None] * symbols
    y = np.empty_like(symbols)
    for i, rng in enumerate(rngs):
        y[i] = awgn_transmit(symbols[i], snr_db, rng)
    noise_var = 10.0 ** (-min(snr_db, SNR_CLIP_DB) / 10.0)
    y = y / gains[:, None]
    noise_var = noise_var / np.maximum(np.abs(gains) ** 2, 1e-30)[:, None]
    dec, _, _, _ = multistage_decode_batch(y, noise_var, cons, c, list_size)
    err = np.zeros(len(rngs), dtype=bool)
    for k in range(cons.m):
        err |= np.any(dec[k] != payloads[k], axis=1)
    return err


def _throughput_chunk(cfg, mcs_table, bler_lut, rf_cons, snr_idx, start, count):
    mean_snr = cfg.snr_grid_db[snr_idx]
    c_by_m = {mcs.m: build_constellation(mcs.m) for mcs in mcs_table}
    picks = []
    for i in range(count):
        rng = frame_rng(cfg.seed, snr_idx, start + i)
        hr, hi = rng.standard_normal(2)
        h = complex(hr, hi) / np.sqrt(2.0)
        inst = mean_snr + 10.0 * np.log10(max(abs(h) ** 2, 1e-30))
        mcs = _select_mcs(mcs_table, bler_lut, inst, cfg.eps)
        c = c_by_m[mcs.m]
        cons = rf_cons[mcs.index] if rf_cons is not None else build_construction(
            "ga", c, mcs.k_for(cfg.n), cfg.n, cfg.eps, inst)
        picks.append((mcs.index, cons, c, rng, h))
    picks.sort(key=lambda p: p[0])
    groups = [list(g) for _, g in groupby(picks, key=lambda p: p[0])]
    if rf_cons is None:
        groups = [[p] for g in groups for p in g]
    delivered = errors = 0
    for group in groups:
        _, cons, c, _, _ = group[0]
        gains = np.array([p[4] for p in group], dtype=np.complex128)
        err = _frame_errors(cons, c, cfg.list_size, mean_snr,
                            [p[3] for p in group], gains)
        delivered += int((~err).sum()) * cons.k_total
        errors += int(err.sum())
    return delivered, errors


def run_throughput(cfg: SimConfig, mcs_table, bler_lut) -> list[SimPoint]:
    """The per-point (value, blocks, errors) of the old throughput run."""
    rf_cons = None if cfg.method == "ga" else {
        mcs.index: build_construction(cfg.method, build_constellation(mcs.m),
                                      mcs.k_for(cfg.n), cfg.n, cfg.eps)
        for mcs in mcs_table}
    points = []
    for snr_idx, mean_snr in enumerate(cfg.snr_grid_db):
        delivered = errors = 0
        for start in range(0, cfg.max_blocks, 256):
            d, e = _throughput_chunk(cfg, mcs_table, bler_lut, rf_cons, snr_idx,
                                     start, min(256, cfg.max_blocks - start))
            delivered += d
            errors += e
        points.append(SimPoint(snr_db=mean_snr,
                               value=delivered / (cfg.max_blocks * cfg.n),
                               blocks=cfg.max_blocks, errors=errors))
    return points
