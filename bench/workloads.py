"""The benchmark workloads: their inputs, set-up and one timed call.

Each workload loads a different layer of mlcpcm, so a change to one layer
shows on one workload and shows no change on another (PREDICTIONS.md has the
table). Everything here goes through the public API. ``prepare`` is the
set-up: it builds what a user builds before simulating and returns the timed
call; ``summarize`` reduces that call's result to plain JSON, and ``checks``
tests that summary against the stored reference.
"""

from __future__ import annotations

import json
from pathlib import Path

from mlcpcm import construction, sim

HERE = Path(__file__).resolve().parent
LUT_PATH = HERE / "fading_lut.json"

N = 256
LIST_SIZE = 8

# Pool workers of each workload's untraced run; traced runs use one.
WORKERS = {"bler-16qam": 1, "minsnr-ga": 2, "throughput-fading": 1}


def sim_seed(seed: int, rep: int) -> int:
    """Simulation seed of repetition ``rep`` of a run with ``--seed seed``."""
    return 1000 * seed + rep


# One SNR point near the waterfall (BLER about 0.24), a fixed frame count and
# no early stop, so the decoder work is the same for every seed.
BLER = {"bler-16qam": dict(m=4, k=512, snr_db=6.5, frames=512)}

# 16QAM at R = 1/2 with a GA construction per probe. One 128-frame chunk per
# probe keeps a repetition to about ten seconds. The error budget stops the
# probes with BLER above 1/2 early, so simulated frames outnumber counted ones,
# while the probes near the target run to the frame budget and keep the
# number of counted frames nearly the same for every seed.
MINSNR_MCS = sim.McsEntry(index=0, m=4, rate_x1024=512.0)
MINSNR = dict(target_bler=0.1, max_blocks=128, max_errors=64)

# Table indices with m = 2, 4, 6 and 8, and two mean SNRs whose fading draws
# pick every one of them.
FADING = dict(mcs_indices=(2, 9, 15, 22), mean_snr_db=(10.0, 18.0), frames=256)


def fading_mcs() -> tuple[sim.McsEntry, ...]:
    table = sim.load_mcs_table()
    return tuple(table[i] for i in FADING["mcs_indices"])


def load_lut() -> dict[int, sim.SimCurve]:
    """The stored BLER look-up table that drives MCS selection."""
    stored = json.loads(LUT_PATH.read_text())
    return {int(index): sim.SimCurve(metric="bler", points=[
                sim.SimPoint(snr_db=s, value=v, blocks=b, errors=e)
                for s, v, b, e in rows])
            for index, rows in stored["curves"].items()}


def prepare(name: str, seed: int, workers: int):
    """Set up workload ``name``; returns its timed call."""
    if name in BLER:
        p = BLER[name]
        construction.construct_rf2(p["m"], p["k"], N)
        cfg = sim.SimConfig(method="rf2", m=p["m"], n=N, k=p["k"],
                            snr_grid_db=(p["snr_db"],), list_size=LIST_SIZE,
                            max_blocks=p["frames"], max_errors=p["frames"],
                            seed=seed)
        return lambda: sim.run_bler(cfg, workers=workers)
    if name == "minsnr-ga":
        p = MINSNR
        return lambda: sim.min_required_snr(
            "ga", MINSNR_MCS, N, p["target_bler"], list_size=LIST_SIZE,
            seed=seed, max_blocks=p["max_blocks"], max_errors=p["max_errors"],
            workers=workers)
    if name == "throughput-fading":
        mcs = fading_mcs()
        for e in mcs:
            construction.construct_rf2(e.m, e.k_for(N), N)
        lut = load_lut()
        # m and k are placeholders: run_throughput takes both from the MCS
        cfg = sim.SimConfig(method="rf2", m=2, n=N, k=1,
                            snr_grid_db=FADING["mean_snr_db"],
                            list_size=LIST_SIZE, max_blocks=FADING["frames"],
                            seed=seed)
        return lambda: sim.run_throughput(cfg, mcs, lut, workers=workers)
    raise ValueError(f"unknown workload {name!r}")


def checks(workload: str, summary: dict, ref: dict) -> list[tuple[str, bool]]:
    """Per-operation correctness checks of one result against the reference."""
    points = summary["points"]
    if workload in BLER:
        lo, hi = ref["bler_interval"]
        return [(f"BLER {v:.4f} at {s} dB within [{lo:.4f}, {hi:.4f}]",
                 lo <= v <= hi) for s, v, _, _ in points]
    if workload == "minsnr-ga":
        snr, target, tol = summary["snr_db"], ref["snr_db"], ref["tol_db"]
        return [(f"required SNR {snr:.3f} dB within {tol:.3f} dB of "
                 f"{target:.3f} dB", abs(snr - target) <= tol),
                ("required SNR search not flagged", not summary["warned"])]
    values = [v for _, v, _, _ in points]
    out = [("throughput non-decreasing in mean SNR",
            all(b >= a for a, b in zip(values, values[1:])))]
    for (s, v, _, _), r, tol in zip(points, ref["throughput"], ref["tolerance"]):
        out.append((f"throughput {v:.4f} at {s} dB within {tol:.4f} of {r:.4f}",
                    abs(v - r) <= tol))
    return out


def summarize(name: str, result) -> dict:
    """Points as [snr_db, value, blocks, errors], frames counted into the
    result, and the information bits those frames carried (delivered bits
    for throughput)."""
    if name == "minsnr-ga":
        points = result.probes
        k = MINSNR_MCS.k_for(N)
    else:
        points = result.points
        k = BLER[name]["k"] if name in BLER else None
    rows = [[p.snr_db, p.value, p.blocks, p.errors] for p in points]
    frames = sum(p.blocks for p in points)
    if k is None:
        info_bits = sum(p.value * p.blocks * N for p in points)
    else:
        info_bits = k * frames
    out = {"points": rows, "frames": frames, "info_bits": info_bits}
    if name == "minsnr-ga":
        out.update(snr_db=result.snr_db, warned=result.warned)
    return out
