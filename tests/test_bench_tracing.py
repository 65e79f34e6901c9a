"""The benchmark's span tracer (bench/tracing.py) still wraps the library.

The traced benchmark reads work counts from the arguments and results of the
wrapped calls: rows and information bits of every decoder call from its LLRs
and its code's ``k`` and ``crc_len``, CRC failures from its per-row
``crc_ok``. This runs a tiny ``run_bler`` and ``run_throughput`` under the
tracer in a fresh interpreter, so the wrappers see every call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer

tracer = Tracer("tier-1")
tracer.install()
from mlcpcm import sim

rows = calls = 0
for m, k in ((4, 64), (1, 20)):
    cfg = sim.SimConfig(method="rf2", m=m, n=32, k=k, snr_grid_db=(4.0, 6.0),
                        list_size=2, max_blocks=24, max_errors=24, seed=3)
    sim.run_bler(cfg)
    rows += m * cfg.max_blocks * len(cfg.snr_grid_db)
    calls += (m + 1) // 2 * len(cfg.snr_grid_db)

table = tuple(sim.McsEntry(index=i, m=m, rate_x1024=512.0)
              for i, m in enumerate((2, 4, 6)))
lut = {e.index: sim.SimCurve(metric="bler", points=[
           sim.SimPoint(snr_db=3.0 * e.m - 2.0, value=0.9, blocks=100, errors=90),
           sim.SimPoint(snr_db=3.0 * e.m + 2.0, value=0.001, blocks=1000,
                        errors=1)])
       for e in table}
cfg = sim.SimConfig(method="rf2", m=2, n=32, k=1, snr_grid_db=(8.0, 16.0),
                    list_size=2, max_blocks=40, seed=4, eps=0.3)
batches = list(sim._fading_batches(cfg, table, lut))
sim.run_throughput(cfg, table, lut)
rows += sum(len(frames) * mcs.m for _, mcs, frames in batches)
calls += sum((mcs.m + 1) // 2 for _, mcs, _ in batches)

scl = "polar_codec.scl_decode_batch"
metrics = tracer.metrics([f"{scl}.frames", f"{scl}.calls",
                          f"{scl}.crc_fail_share"], 0)
print(json.dumps({"absent": tracer.absent, "metrics": metrics, "rows": rows,
                  "calls": calls, "picked": sorted({mcs.m for _, mcs, _ in batches})}))
"""


def test_traced_simulation_counts_every_decoded_row():
    out = subprocess.run([sys.executable, "-c", TRACED_RUN, str(ROOT / "bench")],
                         capture_output=True, text=True, cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.returncode == 0, out.stderr[-4000:]
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["absent"] == []
    assert got["picked"] == [2, 4, 6]  # every entry decoded some frames
    scl = "polar_codec.scl_decode_batch"
    assert got["metrics"][f"{scl}.frames"] == got["rows"]
    # each in-phase/quadrature level pair is one call, BPSK's level its own
    assert got["metrics"][f"{scl}.calls"] == got["calls"]
    assert 0.0 < got["metrics"][f"{scl}.crc_fail_share"] < 1.0
