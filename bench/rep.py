"""One repetition of a benchmark workload, in the process it was started in.

    PYTHONPATH=src python3 bench/rep.py --workload NAME --seed N --workers W
                                        --launch T [--spans FILE]

Imports mlcpcm from the repository's src directory, sets the workload up,
makes its one timed call and prints one JSON object: setup_s (from the
caller's CLOCK_MONOTONIC timestamp T, taken just before this process was
started, to the timed call), solve_s, peak RSS of this process plus its
largest pool worker, software versions and the result summary. With --spans
the process is traced: the per-layer metrics join the output and the spans
go to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    import mlcpcm
    import numpy
    import scipy
    if src not in Path(mlcpcm.__file__).resolve().parents:
        print(f"mlcpcm imported from {mlcpcm.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    import workloads
    from tracing import Tracer

    tracer = None
    if args.spans:
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()
    solve = workloads.prepare(args.workload, args.seed, args.workers)
    t0 = time.monotonic()
    result = solve()
    t1 = time.monotonic()
    summary = workloads.summarize(args.workload, result)

    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {"setup_s": t0 - args.launch, "solve_s": t1 - t0,
           "peak_rss_mb": kib / 1024.0, "summary": summary,
           "versions": {"python": sys.version.split()[0],
                        "numpy": numpy.__version__,
                        "scipy": scipy.__version__,
                        "nproc": len(os.sched_getaffinity(0))}}
    if tracer is not None:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        # trace.overhead_share compares two processes; run.py computes it
        names = [m["name"] for m in spec["per_layer"]
                 if m["name"] != "trace.overhead_share"]
        out["layers"] = tracer.metrics(names, summary["frames"])
        out["absent"] = tracer.absent
        tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
