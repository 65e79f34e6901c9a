"""Regenerate the stored inputs and references of the benchmark.

    PYTHONPATH=src python3 bench/make_reference.py [--lut]

--lut rebuilds fading_lut.json, the BLER look-up table that drives MCS
selection in throughput-fading, with build_bler_lut at a fixed seed. Without
it the stored table is kept, so the MCS pick mix stays fixed across commits.

reference.json holds, per workload, the acceptance window of every checked
value and the exact (blocks, errors) of each simulation seed run here. The
windows come from repetition 0 of --seed 0 .. REF_SEEDS - 1:
  * BLER: pooled estimate +- 5 binomial standard deviations at the
    workload's frame count;
  * required SNR: mean +- max(5 standard deviations over seeds, 0.25 dB);
  * throughput: per mean SNR, mean +- 5 standard deviations over seeds.
Wide enough for any reseed, narrow enough to catch a broken decoder.
Regenerate only when a change alters simulated values on purpose.
"""

from __future__ import annotations

import argparse
import json
import statistics

import numpy as np

from mlcpcm import sim

import workloads

LUT_SEED = 2011
LUT_BUDGET = dict(max_blocks=256, max_errors=50)
REF_SEEDS = 16


def build_lut() -> None:
    lut = sim.build_bler_lut("rf2", workloads.fading_mcs(), workloads.N,
                             list_size=workloads.LIST_SIZE, seed=LUT_SEED,
                             **LUT_BUDGET)
    curves = {str(index): [[p.snr_db, p.value, p.blocks, p.errors]
                           for p in curve.points]
              for index, curve in lut.items()}
    workloads.LUT_PATH.write_text(json.dumps(
        {"seed": LUT_SEED, **LUT_BUDGET, "curves": curves}, indent=1) + "\n")


def reference(name: str, seeds: list[int]) -> dict:
    runs = {s: workloads.summarize(name, workloads.prepare(name, s, 1)())
            for s in seeds}
    out: dict = {}
    if name in workloads.BLER:
        errors = sum(r["points"][0][3] for r in runs.values())
        blocks = sum(r["points"][0][2] for r in runs.values())
        p = errors / blocks
        sd = float(np.sqrt(p * (1 - p) / workloads.BLER[name]["frames"]))
        out.update(bler=p, bler_interval=[max(p - 5 * sd, 0.0),
                                          min(p + 5 * sd, 1.0)])
    elif name == "minsnr-ga":
        snrs = [r["snr_db"] for r in runs.values()]
        out.update(snr_db=statistics.mean(snrs),
                   tol_db=max(5 * statistics.stdev(snrs), 0.25))
    else:
        values = np.array([[p[1] for p in r["points"]] for r in runs.values()])
        out.update(throughput=values.mean(axis=0).tolist(),
                   tolerance=(5 * values.std(axis=0, ddof=1)).tolist())
    out["exact"] = {str(s): [[p[2], p[3]] for p in r["points"]]
                    for s, r in runs.items()}
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--lut", action="store_true")
    args = ap.parse_args()
    if args.lut or not workloads.LUT_PATH.exists():
        build_lut()
    seeds = [workloads.sim_seed(s, 0) for s in range(REF_SEEDS)]
    ref = {}
    for name in workloads.WORKERS:
        ref[name] = reference(name, seeds)
        print(name, {k: v for k, v in ref[name].items() if k != "exact"},
              flush=True)
    (workloads.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
