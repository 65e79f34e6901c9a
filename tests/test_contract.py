"""The seeded reproducibility contract, end to end.

For a given (config, seed), every public simulation returns the same result
at any batch size and worker count. Here each entry point runs small cases
with the decoder's row cap ``sim._MAX_ROWS`` at 2, 34 and 512 rows (1, 17 and
256 frames per chunk at m >= 2) and at 1 and 2 workers, and every returned
dataclass must equal the one at 512 rows and 1 worker, wall time aside. In
one process, the same results must also come out of one-frame demap blocks
(``mlc_system._DEMAP_BYTES``) and of 100-element stage-update blocks
(``polar_codec._BLOCK``), where the decoder's f and g stage updates run
several blocks of one row. A seeded hypothesis test draws BLER cases
(method, m, N <= 64, K, L, budgets) and the three constants together, which
also gives stage updates a partial last block, and holds each case to its
points at the default constants. The golden tests pin the values at one
batch size; this test pins the rest.
"""

import contextlib
import dataclasses
import multiprocessing
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlcpcm.mlc_system as mlc_system
import mlcpcm.polar_codec as polar_codec
import mlcpcm.sim as sim
from mlcpcm.sim import (
    McsEntry,
    SimConfig,
    SimCurve,
    build_bler_lut,
    min_required_snr,
    run_bler,
    run_throughput,
)

# (method, m, k, SNR grid) of the BLER runs at N = 16: each m at every method
BLER_RUNS = [(method, m, 8 * m, grid)
             for m, grid in ((1, (-2.0, 0.0)), (2, (0.0, 2.0)), (4, (6.0, 8.0)))
             for method in ("rf1", "rf2", "ga")]
TABLE = (McsEntry(index=0, m=2, rate_x1024=256), McsEntry(index=1, m=4, rate_x1024=616))


def _masked(result):
    """The result with every curve's wall time zeroed."""
    if isinstance(result, SimCurve):
        return dataclasses.replace(result, wall_time_s=0.0)
    if isinstance(result, dict):
        return {key: _masked(value) for key, value in result.items()}
    return result


def _results(workers: int) -> dict:
    results = {}
    for method, m, k, grid in BLER_RUNS:
        cfg = SimConfig(method=method, m=m, n=16, k=k, snr_grid_db=grid,
                        list_size=4, max_blocks=40, max_errors=8, seed=11)
        results["bler", method, m] = run_bler(cfg, workers=workers)
    # a 1 dB stride from the anchor, then a backfill below its end
    results["minsnr"] = min_required_snr(
        "rf1", McsEntry(index=0, m=2, rate_x1024=384), 64, 0.01, list_size=2,
        seed=6, max_blocks=20, max_errors=20, workers=workers)
    lut = build_bler_lut("rf2", TABLE, 16, span_db=1.0, step_db=1.0,
                         list_size=4, seed=2, max_blocks=30, max_errors=10,
                         workers=workers)
    results["lut"] = lut
    for method in ("rf2", "ga"):
        cfg = SimConfig(method=method, m=2, n=16, k=16, snr_grid_db=(2.0, 8.0),
                        list_size=4, max_blocks=30, seed=3, eps=0.5)
        results["throughput", method] = run_throughput(cfg, TABLE, lut,
                                                       workers=workers)
    return _masked(results)


@pytest.fixture(scope="module")
def reference():
    return _results(workers=1)


def test_contract_cases_cover_the_chunking(reference):
    # some BLER point stops early and some runs to its frame budget, and
    # the walk strides 1 dB and then backfills
    points = [p for key, curve in reference.items() if key[0] == "bler"
              for p in curve.points]
    assert {p.blocks == 40 for p in points} == {True, False}
    snrs = [p.snr_db for p in reference["minsnr"].probes]
    gaps = {b - a for a, b in zip(snrs, snrs[1:])}
    assert 1.0 in gaps and 0.25 in gaps


@pytest.mark.parametrize("rows,workers", [(rows, workers) for rows in (2, 34, 512)
                                          for workers in (1, 2)
                                          if (rows, workers) != (512, 1)])
def test_contract_holds_at_any_batch_size_and_worker_count(monkeypatch, reference,
                                                           rows, workers):
    monkeypatch.setattr(sim, "_MAX_ROWS", rows)
    assert sim._batch_size(4, 16, 1 << 20) == rows // 2
    got = _results(workers)
    for key, want in reference.items():
        assert got[key] == want, key
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("module,name,value", (
    (mlc_system, "_DEMAP_BYTES", 1),
    (polar_codec, "_BLOCK", 100),
), ids=("one-frame-demap-blocks", "boxplus-blocks-of-100"))
def test_contract_holds_at_any_demap_and_boxplus_block(monkeypatch, reference,
                                                       module, name, value):
    # in this process only: a pool worker need not see the patched module
    monkeypatch.setattr(module, name, value)
    got = _results(workers=1)
    for key, want in reference.items():
        assert got[key] == want, key


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_contract_holds_at_drawn_cases_and_constants(data):
    # a drawn run_bler case, then drawn decoder row cap, demap block and
    # stage-update block: the points must equal those at the default constants
    method = data.draw(st.sampled_from(("rf1", "rf2", "ga")), "method")
    m = data.draw(st.sampled_from((1, 2, 4, 6)), "m")
    n = data.draw(st.sampled_from((1, 2, 4, 8, 16, 32, 64)), "n")
    k = data.draw(st.integers(1, m * n), "k")
    low = data.draw(st.sampled_from((-2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0)), "snr")
    max_blocks = data.draw(st.integers(1, 120), "max_blocks")
    cfg = SimConfig(method=method, m=m, n=n, k=k, snr_grid_db=(low, low + 3.0),
                    list_size=data.draw(st.sampled_from((1, 2, 4, 8)), "list_size"),
                    max_blocks=max_blocks,
                    max_errors=data.draw(st.integers(1, max_blocks), "max_errors"),
                    seed=data.draw(st.integers(0, 2**64 - 1), "seed"))
    want = _masked(run_bler(cfg))
    constants = ((sim, "_MAX_ROWS", st.integers(2, 512)),
                 (mlc_system, "_DEMAP_BYTES", st.integers(1, 1 << 20)),
                 (polar_codec, "_BLOCK", st.integers(1, 1 << 14)))
    with contextlib.ExitStack() as stack:
        for module, name, values in constants:
            stack.enter_context(mock.patch.object(module, name, data.draw(values, name)))
        assert _masked(run_bler(cfg)) == want
