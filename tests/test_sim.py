import concurrent.futures
import dataclasses
import functools
import inspect
import multiprocessing
import os
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

import mlcpcm.sim as sim
from mlcpcm.sim import (
    McsEntry,
    SimConfig,
    SimCurve,
    SimPoint,
    awgn_transmit,
    build_bler_lut,
    build_construction,
    frame_rng,
    load_mcs_table,
    min_required_snr,
    predict_bler,
    run_bler,
    run_throughput,
)
import throughput_reference

_bler_chunk = sim._bler_chunk  # the real chunk, for stubs that wrap it


def _small_cfg(**kw):
    base = dict(method="rf2", m=2, n=32, k=24, snr_grid_db=(1.0,),
                list_size=2, max_blocks=200, max_errors=50, seed=0, eps=0.1)
    base.update(kw)
    return SimConfig(**base)


# ------------------------------------------------------------------- tables


def test_load_mcs_table_shape_and_anchors():
    table = load_mcs_table()
    assert len(table) == 28
    assert [e.index for e in table] == list(range(28))
    assert (table[0].m, table[0].rate_x1024) == (2, 120)
    assert (table[27].m, table[27].rate_x1024) == (8, 948)
    assert all(e.m in (2, 4, 6, 8) for e in table)
    # spectral efficiency never decreases along the table
    se = [e.spectral_efficiency for e in table]
    assert all(b >= a for a, b in zip(se, se[1:]))


def test_mcs_entry_helpers_and_validation():
    e = McsEntry(index=5, m=4, rate_x1024=512)
    assert e.rate == 0.5 and e.spectral_efficiency == 2.0
    assert e.k_for(64) == 128
    # k rounds to nearest
    assert McsEntry(index=0, m=2, rate_x1024=120).k_for(256) == round(2 * 256 * 120 / 1024)
    with pytest.raises(ValueError):
        McsEntry(index=0, m=3, rate_x1024=512)
    with pytest.raises(ValueError):
        McsEntry(index=0, m=2, rate_x1024=1024)
    with pytest.raises(ValueError):
        McsEntry(index=0, m=2, rate_x1024=0)


def test_k_for_rate_rounds_half_up():
    # m N rate = 24.5 rounds up and 24.48 down, for an MCS entry as for --rate
    assert sim.k_for_rate(2, 16, 784 / 1024) == 25
    assert McsEntry(index=0, m=2, rate_x1024=784).k_for(16) == 25
    assert sim.k_for_rate(2, 16, 0.765) == 24


@pytest.mark.parametrize("grid", ((float("nan"),), (float("-inf"), 0.0),
                                  (0.0, float("inf")), (1.0, float("nan"))))
def test_sim_config_refuses_non_finite_snr(grid):
    with pytest.raises(ValueError, match="SNR grid points must be finite, got"):
        _small_cfg(snr_grid_db=grid)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        _small_cfg(method="bogus")
    with pytest.raises(ValueError):
        _small_cfg(snr_grid_db=())
    with pytest.raises(ValueError):
        _small_cfg(snr_grid_db=(2.0, 1.0))
    with pytest.raises(ValueError):
        _small_cfg(list_size=3)
    with pytest.raises(ValueError):
        _small_cfg(max_blocks=0)
    with pytest.raises(ValueError):
        _small_cfg(seed=-1)
    with pytest.raises(ValueError):
        _small_cfg(seed=2**64)
    _small_cfg(seed=2**64 - 1, max_blocks=2**32)  # both limits are allowed
    with pytest.raises(ValueError):
        _small_cfg(max_blocks=2**32 + 1)  # frame 2^32 would alias the next point
    for method in ("rf1", "rf2", "ga"):
        for eps in (0.0, 1.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="eps"):
                _small_cfg(method=method, eps=eps)
    for m in (0, -2, 3, 5):
        with pytest.raises(ValueError, match="m must be 1 or an even number"):
            _small_cfg(m=m)
    for n in (0, -4, 12, 48):
        with pytest.raises(ValueError, match="n must be a power of two"):
            _small_cfg(n=n)
    for m, k in ((2, -1), (2, 65), (1, 33)):
        with pytest.raises(ValueError, match="k must lie in"):
            _small_cfg(m=m, k=k)
    for m, n, k in ((1, 1, 0), (1, 32, 32), (2, 32, 0), (2, 32, 64), (8, 4, 32)):
        _small_cfg(m=m, n=n, k=k)
    _small_cfg(m=2, n=256, k=1)  # the placeholders of a throughput run
    # integer fields take integers only, checked before their ranges
    for field_name in ("m", "n", "k", "list_size", "max_blocks", "max_errors", "seed"):
        for bad in (2.0, 10.5, True, "2", None):
            with pytest.raises(TypeError, match=f"{field_name} must be an integer"):
                _small_cfg(**{field_name: bad})
    cfg = _small_cfg(m=np.int64(2), n=np.int32(32), seed=np.uint64(2**64 - 1))
    assert (type(cfg.m), type(cfg.n), type(cfg.seed)) == (int, int, int)
    assert cfg.seed == 2**64 - 1


# ----------------------------------------------------------------- channels


def test_frame_rng_deterministic_and_distinct():
    a = frame_rng(1, 0, 5).random(4)
    b = frame_rng(1, 0, 5).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, frame_rng(1, 0, 6).random(4))
    assert not np.array_equal(a, frame_rng(1, 1, 5).random(4))
    assert not np.array_equal(a, frame_rng(2, 0, 5).random(4))


def test_awgn_statistics():
    rng = np.random.default_rng(0)
    x = np.exp(2j * np.pi * rng.random(200_000))
    y = awgn_transmit(x, 3.0, np.random.default_rng(1))
    noise = y - x
    n0 = 10 ** (-0.3)
    assert abs(np.mean(np.abs(noise) ** 2) - n0) / n0 < 0.01
    assert abs(np.mean(noise)) < 0.01
    # real part drawn before imaginary: regenerating gives identical output
    y2 = awgn_transmit(x, 3.0, np.random.default_rng(1))
    assert np.array_equal(y, y2)


def test_awgn_clips_to_noiseless():
    x = np.ones(100, dtype=complex)
    y = awgn_transmit(x, 250.0, np.random.default_rng(2))
    assert np.max(np.abs(y - x)) < 1e-9


def test_snr_above_the_clip_transmits_and_decodes_as_the_clip():
    # 10^(-snr/10) underflows to 0 near 3240 dB: the clip keeps both the
    # channel noise and the decoder's noise variance those of SNR_CLIP_DB
    x = np.ones(100, dtype=complex)
    clipped = awgn_transmit(x, sim.SNR_CLIP_DB, np.random.default_rng(2))
    assert np.array_equal(awgn_transmit(x, 4000.0, np.random.default_rng(2)),
                          clipped)
    assert not np.array_equal(clipped, x)
    cfg = _small_cfg(snr_grid_db=(sim.SNR_CLIP_DB, 4000.0), max_blocks=20)
    assert [(p.blocks, p.errors) for p in run_bler(cfg).points] == [(20, 0)] * 2


def test_build_construction_dispatch():
    from mlcpcm.constellation import build_constellation
    c = build_constellation(2)
    a = build_construction("rf1", c, 24, 32, 0.1)
    b = build_construction("rf2", c, 24, 32, 0.1)
    g = build_construction("ga", c, 24, 32, 0.1, snr_db=4.0)
    assert (a.method, b.method, g.method) == ("rf1", "rf2", "ga")
    with pytest.raises(ValueError):
        build_construction("ga", c, 24, 32, 0.1)  # needs an operating SNR


# ------------------------------------------------------------ stop counting


def test_consume_truncates_exactly():
    flags = np.array([0, 1, 0, 1, 1, 0, 1], dtype=bool)
    blocks, errors, done = sim._consume(flags, 0, 0, 3)
    assert (blocks, errors, done) == (5, 3, True)
    # starting error count carries over
    blocks, errors, done = sim._consume(flags, 10, 2, 3)
    assert (blocks, errors, done) == (12, 3, True)
    # no truncation when the budget is not reached
    blocks, errors, done = sim._consume(flags, 0, 0, 10)
    assert (blocks, errors, done) == (7, 4, False)
    blocks, errors, done = sim._consume(np.array([], dtype=bool), 4, 2, 5)
    assert (blocks, errors, done) == (4, 2, False)


def test_consume_invariant_to_chunking():
    rng = np.random.default_rng(3)
    flags = rng.random(500) < 0.08
    want = sim._consume(flags, 0, 0, 20)
    for width in (1, 7, 64, 200):
        blocks = errors = 0
        done = False
        for s in range(0, 500, width):
            blocks, errors, done = sim._consume(flags[s:s + width], blocks,
                                                errors, 20)
            if done:
                break
        assert (blocks, errors, done) == want


def test_bler_estimator_unbiased_on_bernoulli_channel(monkeypatch):
    # bypass the decoder entirely: every frame fails i.i.d. with prob p,
    # drawn from the same per-frame substreams the real chunker uses
    p = 0.05

    def fake_chunk(cfg, snr_db, snr_idx, start, count):
        return np.array([frame_rng(cfg.seed, snr_idx, start + i).random() < p
                         for i in range(count)])

    monkeypatch.setattr(sim, "_bler_chunk", fake_chunk)
    cfg = _small_cfg(max_blocks=10_000, max_errors=100)
    curve = run_bler(cfg, workers=1)
    point = curve.points[0]
    assert point.errors == 100  # the error budget is what stopped it
    assert abs(point.value - p) < 3 * p / np.sqrt(100)
    # rerunning reproduces the identical stopping point
    again = run_bler(cfg, workers=1).points[0]
    assert (again.blocks, again.errors, again.value) == (
        point.blocks, point.errors, point.value)


# ------------------------------------------------------------------ run_bler


@pytest.mark.parametrize("method", ("rf2", "ga"))
def test_run_bler_reproducible_and_worker_invariant(method):
    # every worker builds the construction of its chunks itself (ga at each
    # point's SNR) and looks ahead to the next point
    cfg = _small_cfg(method=method, snr_grid_db=(2.0, 5.0), max_blocks=120,
                     max_errors=30)
    one = run_bler(cfg, workers=1)
    for workers in (2, 3):
        many = run_bler(cfg, workers=workers)
        assert [(p.blocks, p.errors, p.value) for p in one.points] == \
               [(p.blocks, p.errors, p.value) for p in many.points]
    assert multiprocessing.active_children() == []
    rerun = run_bler(cfg, workers=1)
    assert [(p.blocks, p.errors) for p in rerun.points] == \
           [(p.blocks, p.errors) for p in one.points]


def test_run_bler_noiseless_grid_point():
    cfg = _small_cfg(snr_grid_db=(250.0,), max_blocks=50, max_errors=10)
    point = run_bler(cfg).points[0]
    assert point.errors == 0 and point.value == 0.0 and point.blocks == 50


def test_run_bler_decreases_with_snr():
    cfg = _small_cfg(snr_grid_db=(-2.0, 6.0), max_blocks=250, max_errors=250)
    lo, hi = run_bler(cfg).points
    assert lo.value > 5 * max(hi.value, 1e-3)


def test_run_bler_seed_consistency():
    # two independent seeds agree within binomial error bars
    cfg_a = _small_cfg(snr_grid_db=(1.5,), max_blocks=400, max_errors=400, seed=0)
    cfg_b = _small_cfg(snr_grid_db=(1.5,), max_blocks=400, max_errors=400, seed=99)
    pa = run_bler(cfg_a).points[0].value
    pb = run_bler(cfg_b).points[0].value
    se = np.sqrt(pa * (1 - pa) / 400 + pb * (1 - pb) / 400)
    assert abs(pa - pb) < 4 * se


def test_run_bler_ga_constructs_per_point():
    cfg = _small_cfg(method="ga", snr_grid_db=(1.0, 4.0), max_blocks=60,
                     max_errors=60)
    curve = run_bler(cfg)
    assert len(curve.points) == 2
    assert curve.points[1].value <= curve.points[0].value


def test_sim_curve_serialization():
    cfg = _small_cfg(max_blocks=40, max_errors=40)
    curve = run_bler(cfg)
    d = curve.to_json_dict()
    assert d["metric"] == "bler" and d["config"]["n"] == 32
    assert len(d["points"]) == 1
    rows = curve.rows()
    assert rows[0][0] == 1.0  # snr column leads


# ------------------------------------------------------- link adaptation


def test_predict_bler_log_interpolation():
    curve = SimCurve(metric="bler", config={})
    curve.points.append(SimPoint(snr_db=0.0, value=1e-1, blocks=10_000, errors=1000))
    curve.points.append(SimPoint(snr_db=2.0, value=1e-3, blocks=10_000, errors=10))
    assert abs(predict_bler(curve, 1.0) - 1e-2) / 1e-2 < 1e-9
    assert predict_bler(curve, -5.0) == pytest.approx(1e-1)
    assert predict_bler(curve, 9.0) == pytest.approx(1e-3)


def test_min_required_snr_orders_targets():
    mcs = McsEntry(index=0, m=2, rate_x1024=384)
    loose = min_required_snr("rf1", mcs, 64, 0.3, list_size=2, seed=3,
                             max_blocks=400, max_errors=60)
    tight = min_required_snr("rf1", mcs, 64, 0.03, list_size=2, seed=3,
                             max_blocks=2000, max_errors=60)
    assert tight.snr_db > loose.snr_db
    assert len(loose.probes) <= 240 and len(tight.probes) <= 240


def _stub_min_snr(monkeypatch, below, above, threshold=10.0):
    """min_required_snr over stub probes: (errors, blocks) ``below`` the
    threshold SNR and ``above`` it."""
    def stub_point(snr_idx, s, ahead=()):
        errors, blocks = below if s < threshold else above
        return SimPoint(snr_db=s, value=errors / blocks, blocks=blocks,
                        errors=errors)
    monkeypatch.setattr(sim, "_chunk_scheduler", lambda *args: stub_point)
    return min_required_snr("rf1", McsEntry(index=0, m=2, rate_x1024=512), 32, 0.01)


def test_min_required_snr_flat_bracket_warns(monkeypatch):
    # no errors in 10 blocks reads as 0.05 >= 0.04 after continuity correction
    res = _stub_min_snr(monkeypatch, below=(4, 100), above=(0, 10))
    assert res.warned
    assert res.snr_db == pytest.approx(9.875)


def test_min_required_snr_clean_bracket_interpolates(monkeypatch):
    res = _stub_min_snr(monkeypatch, below=(4, 100), above=(1, 800))
    assert not res.warned
    # log-linear between 0.04 at 9.75 dB and 0.00125 at 10 dB, target 0.01
    assert res.snr_db == pytest.approx(9.75 + 0.25 * np.log10(4) / np.log10(32))
    assert [p.snr_db for p in res.probes] == sorted(p.snr_db for p in res.probes)


def test_search_and_lut_take_their_settings_from_simconfig(monkeypatch):
    # neither restates a SimConfig default: the settings a caller leaves out
    # are SimConfig's own, in the one config each simulates
    fields = {f.name for f in dataclasses.fields(SimConfig)}
    for fn in (min_required_snr, build_bler_lut):
        restated = [name for name, p in inspect.signature(fn).parameters.items()
                    if name in fields and p.default is not inspect.Parameter.empty]
        assert restated == [], f"{fn.__name__} restates SimConfig's {restated}"
    simulated = []

    def scheduler(cfg, pool, workers):
        simulated.append(cfg)
        return lambda snr_idx, s, ahead=(): SimPoint(
            snr_db=s, value=0.5 if s < 10.0 else 0.0, blocks=10,
            errors=5 if s < 10.0 else 0)

    monkeypatch.setattr(sim, "_chunk_scheduler", scheduler)
    mcs = McsEntry(index=0, m=2, rate_x1024=512)
    res = min_required_snr("rf1", mcs, 32, 0.01)
    build_bler_lut("rf1", (mcs,), 32)
    assert len(simulated) == 2
    for cfg in simulated:
        assert cfg == SimConfig(method="rf1", m=2, n=32, k=mcs.k_for(32),
                                snr_grid_db=cfg.snr_grid_db)
    # the search echoes the config its probes simulate, grid aside, and its
    # result stays hashable
    echo = dataclasses.asdict(simulated[0])
    del echo["snr_grid_db"]
    assert res.config == echo
    assert hash(res) == hash(dataclasses.replace(res, config={}))


# Real walks of each kind, each checked at 1, 2 and 3 workers:
# walk -> (method, mcs, n, target_bler, max_blocks, max_errors, seed)
# All but "chunked" and "two-chunk" probe one chunk of frames and so look
# ahead on the idle workers. QPSK chunks hold up to 256 frames: "chunked"
# probes up to 600 frames in three chunks, which leave no worker idle, and
# "two-chunk" up to 300 frames in two, which leave one idle at three.
SPECULATION_WALKS = {
    "ascent": ("ga", McsEntry(index=0, m=2, rate_x1024=512), 32, 0.2, 200, 40, 5),
    "descent": ("rf1", McsEntry(index=0, m=2, rate_x1024=384), 64, 0.9, 100, 40, 5),
    "backfill": ("rf1", McsEntry(index=0, m=2, rate_x1024=384), 64, 0.01, 20, 20, 6),
    "backfill-ga": ("ga", McsEntry(index=0, m=2, rate_x1024=512), 64, 0.01, 20, 20, 3),
    "chunked": ("rf1", McsEntry(index=0, m=2, rate_x1024=384), 32, 0.01, 600, 5, 4),
    "two-chunk": ("rf1", McsEntry(index=0, m=2, rate_x1024=384), 32, 0.01, 300, 5, 4),
}


@pytest.mark.parametrize("walk", SPECULATION_WALKS)
def test_min_required_snr_worker_invariant(walk):
    method, mcs, n, target, blocks, errors, seed = SPECULATION_WALKS[walk]
    results = [min_required_snr(method, mcs, n, target, list_size=2, seed=seed,
                                max_blocks=blocks, max_errors=errors,
                                workers=workers)
               for workers in (1, 2, 3)]
    assert results[1] == results[0] and results[2] == results[0]
    assert multiprocessing.active_children() == []
    probes = results[0].probes
    below = [p.value < target for p in probes]
    if walk == "ascent":  # up from the lowest probe until the last one
        assert below == [False] * (len(probes) - 1) + [True]
    elif walk == "descent":  # down from the anchor to the lowest probe
        assert below == [False] + [True] * (len(probes) - 1)
    elif walk == "chunked":  # some probe ran past its first chunk
        assert max(p.blocks for p in probes) > 512
    elif walk == "two-chunk":  # some probe ran into its second chunk
        assert max(p.blocks for p in probes) > 256
    else:  # a 1 dB stride, then grid points filled in below its end
        gaps = np.diff([p.snr_db for p in probes])
        assert 1.0 in gaps and 0.25 in gaps


def _stub_chunk(threshold, log, fail_above, cfg, snr_db, snr_idx, start,
                count):
    """A chunk of a stub probe: 40 errors in every 100 frames below the
    threshold SNR and 1 in every 800 from it on. Appends (SNR, start frame,
    process id) to ``log``, then raises above ``fail_above``."""
    with open(log, "a") as fh:
        fh.write(f"{snr_db!r} {start} {os.getpid()}\n")
    if snr_db > fail_above:
        raise ValueError(f"stub probe at {snr_db} dB")
    errors, blocks = (40, 100) if snr_db < threshold else (1, 800)
    return np.arange(start, start + count) % blocks < errors


def _fork_pool(monkeypatch):
    """Fork pool workers whatever the platform's default start method, so
    that they run the stubs patched into ``sim``."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the stub reaches pool workers only through fork")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        functools.partial(ProcessPoolExecutor,
                                          mp_context=multiprocessing.get_context("fork")))


def _stub_probes(monkeypatch, threshold, log, fail_above=np.inf):
    """Stub the chunks of min_required_snr's probes with ``_stub_chunk``.
    Pool workers are forked, so they run the stub too."""
    _fork_pool(monkeypatch)
    monkeypatch.setattr(sim, "_bler_chunk", functools.partial(
        _stub_chunk, threshold, log, fail_above))


def _stub_walk(workers, max_blocks=128):
    # QPSK at one bit per symbol: the capacity anchor is at 0 dB on the grid;
    # at N=32 a probe of up to 256 frames is one chunk
    return min_required_snr("rf1", McsEntry(index=0, m=2, rate_x1024=512), 32,
                            0.01, max_blocks=max_blocks, workers=workers)


def _logged(log):
    """(SNR, start frame, process id) of every logged stub chunk."""
    rows = [line.split() for line in log.read_text().splitlines()]
    return [(float(s), int(start), int(pid)) for s, start, pid in rows]


def _logged_snrs(log):
    return {s for s, _, _ in _logged(log)}


@pytest.mark.parametrize("threshold", (9.6, -5.0))
def test_min_required_snr_speculation_never_shows(monkeypatch, tmp_path,
                                                  threshold):
    log = tmp_path / "probes.txt"
    _stub_probes(monkeypatch, threshold, log)
    walk = _stub_walk(1)
    asked = [p.snr_db for p in walk.probes]
    assert sorted(_logged_snrs(log)) == asked  # one worker does not speculate
    for workers in (2, 3):
        log.unlink()
        assert _stub_walk(workers) == walk
        assert set(asked) <= _logged_snrs(log)
        # each probe is one chunk, run in a pool worker
        assert {start for _, start, _ in _logged(log)} == {0}
        assert os.getpid() not in {pid for _, _, pid in _logged(log)}
        if threshold < 0:
            # the descent never asks for the points above the anchor that
            # were sent out with it; they run before the walk can end
            assert set(asked) < _logged_snrs(log)
    assert multiprocessing.active_children() == []


def test_min_required_snr_backfill_speculates_below_bracket(monkeypatch,
                                                            tmp_path):
    # 1 dB strides from the 0 dB anchor bracket the 9.6 dB step as [9, 10];
    # the backfill then probes 9.25, 9.5 and 9.75. Speculating four points
    # ahead, it sends out no grid point above 10 dB: the strides' own
    # speculation sends out only whole dB values there.
    log = tmp_path / "probes.txt"
    _stub_probes(monkeypatch, 9.6, log)
    walk = _stub_walk(5)
    asked = [p.snr_db for p in walk.probes]
    assert asked == sorted([float(s) for s in range(11)] + [9.25, 9.5, 9.75])
    above = {s for s in _logged_snrs(log) if s > 10.0}
    assert above and all(s == round(s) for s in above)
    assert multiprocessing.active_children() == []


def test_min_required_snr_chunked_probes_do_not_speculate(monkeypatch,
                                                          tmp_path):
    # 600 frames at N=32 are three chunks, more than the two workers: each
    # probe spreads its chunks over the workers instead, and only the probes
    # the walk asks for run
    log = tmp_path / "probes.txt"
    _stub_probes(monkeypatch, 9.6, log)
    want = _stub_walk(1, max_blocks=600)
    log.unlink()
    assert _stub_walk(2, max_blocks=600) == want
    logged = _logged(log)
    assert sorted({s for s, _, _ in logged}) == [p.snr_db for p in want.probes]
    # the probes that run to 600 frames ran their last chunk, from frame 512
    assert {s for s, start, _ in logged if start == 512} >= \
           {p.snr_db for p in want.probes if p.blocks == 600}
    assert os.getpid() not in {pid for _, _, pid in logged}


def test_min_required_snr_unrequested_failure_is_ignored(monkeypatch, tmp_path):
    # the walk descends from the 0 dB anchor; the probes speculated above it
    # at the start (an ascent guess) raise, and the walk never asks for them
    log = tmp_path / "probes.txt"
    _stub_probes(monkeypatch, -5.0, log)
    want = _stub_walk(1)
    _stub_probes(monkeypatch, -5.0, log, fail_above=0.0)
    for workers in (2, 3):
        log.unlink(missing_ok=True)
        assert _stub_walk(workers) == want
        assert 1.0 in _logged_snrs(log)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", (1, 2))
def test_min_required_snr_requested_failure_surfaces(monkeypatch, tmp_path,
                                                     workers):
    _stub_probes(monkeypatch, 10.0, tmp_path / "probes.txt", fail_above=4.9)
    with pytest.raises(ValueError, match="stub probe at 5.0 dB"):
        _stub_walk(workers)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", (1, 2))
def test_min_required_snr_guard_leaves_no_children(monkeypatch, tmp_path,
                                                   workers):
    # every probe below target: the descent runs into the 60 dB guard
    _stub_probes(monkeypatch, -np.inf, tmp_path / "probes.txt")
    with pytest.raises(RuntimeError, match="within 60 dB"):
        _stub_walk(workers)
    assert multiprocessing.active_children() == []


def _stalling_chunk(asked, marks, cfg, snr_db, snr_idx, start, count):
    """A probe chunk that runs as usual at the SNRs in ``asked``; at any
    other SNR it leaves a mark file in ``marks`` and sleeps for a minute."""
    if snr_db in asked:
        return _bler_chunk(cfg, snr_db, snr_idx, start, count)
    (marks / repr(snr_db)).touch()
    time.sleep(60)


def test_min_required_snr_stops_unread_look_ahead(monkeypatch, tmp_path):
    # the descent never reads the look-ahead sent up from its anchor, which
    # then runs until the bracket is found; the pool's exit stops it
    # instead of waiting a minute for it
    method, mcs, n, target, blocks, errors, seed = SPECULATION_WALKS["descent"]

    def walk(workers):
        return min_required_snr(method, mcs, n, target, list_size=2, seed=seed,
                                max_blocks=blocks, max_errors=errors,
                                workers=workers)

    want = walk(1)
    _fork_pool(monkeypatch)
    monkeypatch.setattr(sim, "_bler_chunk", functools.partial(
        _stalling_chunk, frozenset(p.snr_db for p in want.probes), tmp_path))
    t0 = time.monotonic()
    assert walk(2) == want
    assert time.monotonic() - t0 < 15.0
    assert [p.name for p in tmp_path.iterdir()]  # some look-ahead stalled
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("target", (0.0, 1.0, 1.5, -0.1, float("nan")))
def test_min_required_snr_rejects_target_outside_unit_interval(target):
    with pytest.raises(ValueError, match="target_bler"):
        min_required_snr("rf1", McsEntry(index=0, m=2, rate_x1024=512), 32,
                         target)


ENTRY_MCS = McsEntry(index=0, m=2, rate_x1024=512)


BAD_ENTRY_CALLS = {
    "minsnr-n0": (min_required_snr, ("rf1", ENTRY_MCS, 0, 0.1), {},
                  "n must be a power of two"),
    "minsnr-list3": (min_required_snr, ("rf1", ENTRY_MCS, 32, 0.1),
                     {"list_size": 3}, "list size must be a power of two"),
    "lut-n0": (build_bler_lut, ("rf2", (ENTRY_MCS,), 0), {},
               "n must be a power of two"),
    "lut-step0": (build_bler_lut, ("rf2", (ENTRY_MCS,), 32), {"step_db": 0.0},
                  "step_db"),
    "lut-step-negative": (build_bler_lut, ("rf2", (ENTRY_MCS,), 32),
                          {"step_db": -1.0}, "step_db"),
    "lut-step-inf": (build_bler_lut, ("rf2", (ENTRY_MCS,), 32),
                     {"step_db": float("inf")}, "step_db"),
    "lut-span-nan": (build_bler_lut, ("rf2", (ENTRY_MCS,), 32),
                     {"span_db": float("nan")}, "span_db"),
    "lut-errors0": (build_bler_lut, ("rf2", (ENTRY_MCS,), 32),
                    {"max_errors": 0}, "budgets must be at least 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_ENTRY_CALLS))
def test_entry_points_check_arguments_before_the_anchor_solve(monkeypatch, case):
    fn, args, kwargs, message = BAD_ENTRY_CALLS[case]
    solved = []
    monkeypatch.setattr(sim, "solve_snr_capacity",
                        lambda *args: solved.append(args) or 0.0)
    with pytest.raises(ValueError, match=message):
        fn(*args, **kwargs)
    assert solved == []


def test_build_bler_lut_checks_every_entry_before_simulating(monkeypatch):
    # at N = 1 the second entry carries no information bit, which its anchor
    # solve refuses; the first entry's curve is not simulated meanwhile
    simulated = []
    monkeypatch.setattr(sim, "_bler_chunk",
                        lambda *args: simulated.append(args) or np.zeros(0, bool))
    table = (McsEntry(index=0, m=8, rate_x1024=948),
             McsEntry(index=1, m=2, rate_x1024=120))
    with pytest.raises(ValueError, match="target sum-rate 0.0 outside"):
        build_bler_lut("rf2", table, 1, max_blocks=4, max_errors=2)
    assert simulated == []


def _negate(x):
    return -x


@pytest.mark.parametrize("workers", (1, 2))
def test_in_order_draws_lazily_and_closes_cleanly(workers):
    drawn = []

    def arg_tuples():
        for i in range(100):
            drawn.append(i)
            yield (i,)

    with sim._pool(workers) as pool:
        submit = None if pool is None else pool.submit
        with closing(sim._in_order(submit, _negate, arg_tuples(),
                                   workers)) as results:
            assert [next(results) for _ in range(3)] == [0, -1, -2]
    # at most workers + 1 calls in flight beyond those already yielded
    assert len(drawn) <= 3 + workers
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", (0, -1))
def test_worker_count_below_one_rejected(workers):
    cfg = _small_cfg()
    table = _tiny_table()
    calls = (lambda: run_bler(cfg, workers=workers),
             lambda: run_throughput(cfg, table, {}, workers=workers),
             lambda: build_bler_lut("rf2", table, 32, workers=workers),
             lambda: min_required_snr("rf1", table[0], 32, 0.1,
                                      workers=workers))
    for call in calls:
        with pytest.raises(ValueError, match="workers must be at least 1"):
            call()


def test_each_entry_point_starts_one_pool(monkeypatch):
    made = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    table = _tiny_table()
    method, mcs, n, target, blocks, errors, seed = SPECULATION_WALKS["chunked"]
    calls = {
        "run_bler over 3 points": lambda: run_bler(
            _small_cfg(snr_grid_db=(1.0, 2.0, 3.0), max_blocks=40,
                       max_errors=10), workers=2),
        "build_bler_lut over 2 entries": lambda: build_bler_lut(
            "rf2", table[:2], 32, span_db=1.0, step_db=1.0, list_size=2,
            max_blocks=30, max_errors=10, workers=2),
        "multi-chunk min_required_snr": lambda: min_required_snr(
            method, mcs, n, target, list_size=2, seed=seed, max_blocks=blocks,
            max_errors=errors, workers=2),
        "run_throughput": lambda: run_throughput(
            _small_cfg(snr_grid_db=(8.0, 12.0), max_blocks=20), table,
            _scheduler_lut(table), workers=2),
    }
    for name, call in calls.items():
        made.clear()
        result = call()
        assert made == [2], name
        assert multiprocessing.active_children() == [], name
        if name.startswith("multi-chunk"):
            assert max(p.blocks for p in result.probes) > 512


def test_single_worker_runs_load_no_pool_machinery():
    # in a fresh interpreter: pytest itself has already imported the pool here
    code = (
        "import sys\n"
        "import mlcpcm\n"
        "mlcpcm.run_bler(mlcpcm.SimConfig(method='rf2', m=4, n=16, k=32,\n"
        "    snr_grid_db=(6.0, 7.0), list_size=2, max_blocks=16, max_errors=4),\n"
        "    workers=1)\n"
        "table = (mlcpcm.McsEntry(index=0, m=2, rate_x1024=256),)\n"
        "mlcpcm.min_required_snr('rf1', table[0], 16, 0.5, list_size=1,\n"
        "    max_blocks=8, max_errors=4, workers=1)\n"
        "lut = mlcpcm.build_bler_lut('rf2', table, 16, span_db=2.0, step_db=2.0,\n"
        "    list_size=1, max_blocks=8, max_errors=4, workers=1)\n"
        "mlcpcm.run_throughput(mlcpcm.SimConfig(method='rf2', m=2, n=16, k=0,\n"
        "    snr_grid_db=(6.0,), list_size=1, max_blocks=8), table, lut,\n"
        "    workers=1)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.partition('.')[0] in ('multiprocessing', 'concurrent')))\n")
    src = Path(sim.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "[]"


def _tiny_table():
    return (McsEntry(index=0, m=2, rate_x1024=256),
            McsEntry(index=1, m=2, rate_x1024=512),
            McsEntry(index=2, m=4, rate_x1024=616))


def test_throughput_adapts_to_snr():
    table = _tiny_table()
    lut = build_bler_lut("rf2", table, 32, span_db=4.0, step_db=2.0,
                         list_size=2, seed=1, max_blocks=150, max_errors=40)
    out = {}
    for snr in (-3.0, 24.0):
        cfg = _small_cfg(snr_grid_db=(snr,), max_blocks=120, seed=5)
        point = run_throughput(cfg, table, lut).points[0]
        out[snr] = point.value
    peak = max(e.m * e.k_for(32) / (e.m * 32) for e in table)  # bits/symbol
    assert 0.0 <= out[-3.0] < out[24.0] <= peak + 1e-12
    # at 24 dB mean SNR the link should push well past the lowest entry
    assert out[24.0] > table[0].spectral_efficiency


def test_throughput_reproducible():
    table = _tiny_table()
    lut = build_bler_lut("rf2", table, 32, span_db=2.0, step_db=2.0,
                         list_size=2, seed=1, max_blocks=100, max_errors=30)
    cfg = _small_cfg(snr_grid_db=(10.0,), max_blocks=80, seed=6)
    curve = run_throughput(cfg, table, lut)
    a = curve.points[0]
    b = run_throughput(cfg, table, lut).points[0]
    assert (a.value, a.blocks, a.errors) == (b.value, b.blocks, b.errors)
    # the echo leaves out the config fields a throughput run never reads
    echo = curve.config
    assert not {"m", "k", "max_errors"} & set(echo)
    assert echo["max_blocks"] == 80 and echo["seed"] == 6


def _scheduler_lut(table):
    return build_bler_lut("rf2", table, 32, span_db=2.0, step_db=2.0,
                          list_size=2, seed=1, max_blocks=60, max_errors=20)


@pytest.mark.parametrize("method,points,frames,workers", (
    ("rf2", 2, 300, 1), ("rf2", 3, 513, 2), ("rf1", 3, 300, 2),
    ("rf1", 2, 513, 1), ("ga", 2, 10, 2), ("ga", 3, 6, 1),
))
def test_throughput_scheduler_matches_per_chunk_reference(method, points,
                                                          frames, workers):
    table = _tiny_table()
    lut = _scheduler_lut(table)
    cfg = _small_cfg(method=method, snr_grid_db=(4.0, 8.0, 12.0)[-points:],
                     max_blocks=frames, seed=6, eps=0.5)
    got = [(p.value, p.blocks, p.errors)
           for p in run_throughput(cfg, table, lut, workers=workers).points]
    want = [(p.value, p.blocks, p.errors)
            for p in throughput_reference.run_throughput(cfg, table, lut)]
    assert got == want


def test_throughput_batches_fill_across_points():
    table = _tiny_table()
    lut = _scheduler_lut(table)
    cfg = _small_cfg(snr_grid_db=(4.0, 8.0, 12.0), max_blocks=513, seed=6,
                     eps=0.5)
    batches = list(sim._fading_batches(cfg, table, lut))
    limit = sim._batch_size(2, 32, 3 * 513)
    assert limit == 256 == sim._batch_size(4, 32, 3 * 513)
    sizes: dict = {}
    for _, mcs, frames in batches:
        # every frame picked the batch's entry, so they share its construction
        assert all(sim._select_mcs(table, lut, f[3], cfg.eps) is mcs
                   for f in frames)
        sizes.setdefault(mcs, []).append(len(frames))
    # every batch is full but the last of each entry: one partial batch each
    assert all(s[-1] <= limit and set(s[:-1]) <= {limit} for s in sizes.values())
    assert any(len(s) > 1 for s in sizes.values())
    points = Counter(f[0] for *_, frames in batches for f in frames)
    assert points == {0: 513, 1: 513, 2: 513}
    # some full batch mixes mean-SNR points
    assert any(len({f[0] for f in frames}) > 1
               for *_, frames in batches if len(frames) == limit)


# ------------------------------------------------------------ golden values

# (value, blocks, errors) per SNR point of small fixed runs: the seeded
# reproducibility contract makes any change to a simulated value fail these.
GOLDEN_BLER = [(0.22727272727272727, 88, 20), (0.04, 100, 4)]
GOLDEN_THROUGHPUT = {
    "rf2": [(1.3807291666666666, 300, 39), (1.785, 300, 27)],
    "ga": [(1.1015625, 12, 2), (1.7786458333333333, 12, 0)],
}


@pytest.mark.parametrize("method", ("rf2", "ga"))
def test_run_bler_golden(method):
    cfg = _small_cfg(method=method, snr_grid_db=(0.0, 2.0), max_blocks=100,
                     max_errors=20, seed=7)
    got = [(p.value, p.blocks, p.errors) for p in run_bler(cfg).points]
    assert got == GOLDEN_BLER


@pytest.mark.parametrize("method,frames,workers",
                         (("rf2", 300, 1), ("rf2", 300, 2), ("ga", 12, 1)))
def test_run_throughput_golden(method, frames, workers):
    table = _tiny_table()
    lut = build_bler_lut("rf2", table, 32, span_db=2.0, step_db=2.0,
                         list_size=2, seed=1, max_blocks=60, max_errors=20)
    # a BLER limit of 0.5 picks 16QAM often and leaves errors to count
    cfg = _small_cfg(method=method, snr_grid_db=(8.0, 12.0),
                     max_blocks=frames, seed=6, eps=0.5)
    got = [(p.value, p.blocks, p.errors)
           for p in run_throughput(cfg, table, lut, workers=workers).points]
    assert got == GOLDEN_THROUGHPUT[method]
