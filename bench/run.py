"""mlcpcm benchmark: one workload, repeated in fresh processes for a fixed time.

    python3 bench/run.py --workload bler-16qam --seed 1 --seconds 40 --trace 0

Run from the repository root. Workloads: bler-16qam, minsnr-ga,
throughput-fading (bench/workloads.py; PREDICTIONS.md says what each one
loads and which metrics a change should move on it).

Every repetition is a fresh Python process that imports mlcpcm from ./src,
so the level_stats and rank-sequence caches start cold and setup_s is
honest; BLAS and OpenMP are pinned to one thread, and at most one
repetition runs at a time. Repetition r simulates with seed 1000 * seed + r.
Repetitions continue while one more of median length fits in --seconds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median over
repetitions (quartiles and count on the lines above the result).
--trace 1 runs each repetition twice with the same seed at one worker, first
untraced and then traced (bench/tracing.py), and reports the per-layer
metrics of the traced ones plus trace.overhead_share, the median over pairs
of traced over untraced solve time, minus one.

Every result is checked against bench/reference.json; failed and attempted
count those checks. The last line of stdout is the JSON result. Details of
every repetition go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
MAX_REPS = 200
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RepFailed(RuntimeError):
    pass


def run_rep(workload: str, seed: int, workers: int, deadline: float,
            spans: Path | None = None) -> dict:
    """One repetition in a fresh process; returns its JSON output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    launch = time.monotonic()
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--workers", str(workers),
           "--launch", repr(launch)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # own session, so a timeout also stops the repetition's pool workers
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"{workload} seed {seed} did not finish in time")
    if proc.returncode != 0:
        raise RepFailed(f"{workload} seed {seed} exited with "
                        f"{proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def exact_match(summary: dict, ref: dict, seed: int) -> bool | None:
    """Whether (blocks, errors) equal the stored ones for this seed, if any."""
    stored = ref["exact"].get(str(seed))
    if stored is None:
        return None
    return stored == [[b, e] for _, _, b, e in summary["points"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(rep: dict) -> dict[str, float]:
    s = rep["summary"]
    return {"frames_per_s": s["frames"] / rep["solve_s"],
            "info_kbit_per_s": s["info_bits"] / rep["solve_s"] / 1e3,
            "solve_s": rep["solve_s"], "setup_s": rep["setup_s"],
            "peak_rss_mb": rep["peak_rss_mb"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "mlcpcm" / "__init__.py").is_file():
        print(f"no mlcpcm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKERS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKERS)}")

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref = json.loads((HERE / "reference.json").read_text())[args.workload]
    OUT.mkdir(exist_ok=True)

    plain, traced, results, durations = [], [], [], []
    try:
        while len(durations) < MAX_REPS:
            t = time.monotonic()
            seed = workloads.sim_seed(args.seed, len(durations))
            if args.trace:
                rep = run_rep(args.workload, seed, 1, deadline)
                spans = OUT / f"spans-{args.workload}-seed{seed}.json"
                traced.append(run_rep(args.workload, seed, 1, deadline, spans))
                results.append(("traced rerun gives the same result",
                                 traced[-1]["summary"] == rep["summary"]))
            else:
                rep = run_rep(args.workload, seed,
                              workloads.WORKERS[args.workload], deadline)
            rep["seed"] = seed
            plain.append(rep)
            results += workloads.checks(args.workload, rep["summary"],
                                        ref)
            durations.append(time.monotonic() - t)
            if (time.monotonic() - start + statistics.median(durations)
                    > args.seconds):
                break
    except RepFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    stats = {name: quartiles([end_to_end(r)[name] for r in plain])
             for name in end_to_end(plain[0])}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failed = [what for what, ok in results if not ok]
    exact = [e for r in plain
             if (e := exact_match(r["summary"], ref, r["seed"])) is not None]

    v = plain[0]["versions"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(plain)} repetitions in {time.monotonic() - start:.1f} s")
    print(f"env python {v['python']}  numpy {v['numpy']}  scipy {v['scipy']}  "
          f"nproc {v['nproc']}")
    for name, (q1, med, q3) in stats.items():
        print(f"{name:16s} median {med:.6g} {units[name]}  "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(plain)})")
    print(f"fail_share {len(failed) / len(results):.6g}  "
          f"({len(failed)} of {len(results)} checks failed)")
    for what in failed:
        print(f"FAILED: {what}")
    print(f"exact (blocks, errors) vs stored reference, for information: "
          f"{sum(exact)} of {len(exact)} repetitions with a stored seed match")

    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        # each pair ran back to back, so its ratio is free of slow drift
        layers["trace.overhead_share"] = statistics.median(
            t["solve_s"] / p["solve_s"] for t, p in zip(traced, plain)) - 1.0
        if traced[0]["absent"]:
            print(f"absent (not traced): {', '.join(traced[0]['absent'])}")
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {n: {"value": layers[n], "unit": units[n]} for n in names}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = {n: {"value": stats[n][1], "unit": units[n]} for n in names}

    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "repetitions": plain, "traced": traced,
              "checks": results, "stats": stats, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
