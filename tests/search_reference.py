"""Frozen reference of the required-SNR walk.

This is how ``mlcpcm.sim.min_required_snr`` walked its 0.25 dB grid before
it strode across the waterfall's flat top: a 1 dB stride only from a probe
at 30 x the target BLER or more, which never happens above a target of
1/30, then a backfill below the stride's end. It is kept serial, without
look-ahead, each probe a one-point ``run_bler`` of the search's SimConfig,
so the differential test in ``tests/test_sim.py`` can hold the search's
result and probes against it. Do not change it.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np

from mlcpcm.sim import (McsEntry, MinSnrResult, SimPoint, _entry_setup,
                        _log_bler, run_bler)


def min_required_snr(method: str, mcs: McsEntry, n: int, target_bler: float,
                     known: dict[float, SimPoint] | None = None,
                     **settings) -> MinSnrResult:
    """The walk's result. ``known`` maps SNRs to probes already simulated
    there; a probe depends only on (config, SNR), so one stands in for its
    ``run_bler`` call."""
    known = known or {}
    cfg, anchor = _entry_setup(method, mcs, n, settings)
    step = 0.25
    s = np.floor(anchor / step) * step
    cache: dict[float, SimPoint] = {}

    def probe(s: float) -> SimPoint:
        s = round(s / step) * step
        if s not in cache:
            cache[s] = known[s] if s in known else run_bler(
                replace(cfg, snr_grid_db=(s,))).points[0]
        return cache[s]

    p = probe(s)
    guard = 0
    while p.value < target_bler:  # walked in above the waterfall
        s -= step
        p = probe(s)
        guard += 1
        if guard > 240:
            raise RuntimeError("target BLER not bracketed within 60 dB")
    lo = p
    while True:
        stride = 1.0 if lo.value >= 30 * target_bler else step
        p = probe(lo.snr_db + stride)
        guard += 1
        if guard > 240:
            raise RuntimeError("target BLER not bracketed within 60 dB")
        if p.value < target_bler:
            hi = p  # backfill so the bracket is adjacent on the grid
            while hi.snr_db - lo.snr_db > step * 1.01:
                q = probe(lo.snr_db + step)
                if q.value < target_bler:
                    hi = q
                else:
                    lo = q
            break
        lo = p

    llo, lhi, lt = _log_bler(lo), _log_bler(hi), np.log10(target_bler)
    warned = lhi >= llo
    if warned:  # flat bracket: fall back to the midpoint
        snr = 0.5 * (lo.snr_db + hi.snr_db)
    else:
        snr = lo.snr_db + (hi.snr_db - lo.snr_db) * (llo - lt) / (llo - lhi)
    probes = tuple(sorted(cache.values(), key=lambda p: p.snr_db))
    return MinSnrResult(snr_db=float(snr), warned=warned, probes=probes,
                        config={key: value for key, value in asdict(cfg).items()
                                if key != "snr_grid_db"})
