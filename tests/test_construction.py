import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlcpcm import construction
from mlcpcm.constellation import build_constellation, build_qam
from mlcpcm.construction import (
    construct_ga,
    construct_rf1,
    construct_rf2,
    default_sequence,
    finite_bl_values,
    five_g_sequence,
    ga_check_update,
    ga_evolve,
    ln_phi,
    load_rank_sequence,
    pw_sequence,
    rate_fill,
    solve_snr_capacity,
    solve_snr_finite,
)
from mlcpcm.mp_analysis import (
    biawgn_sigma_for_capacity,
    finite_bl_rate,
    level_stats,
    noise_sigma,
    q_inverse,
)
from mlcpcm.sim import load_mcs_table

DATA = Path(__file__).parent / "data"


def _rate_fill_oracle(values, k_total, n):
    # plain-python re-execution of the progressive fill: descending values
    # (smaller index first on ties), ceil of the proportional share of the
    # remaining bits at each step, cap at N, spill any leftover in order
    m = len(values)
    order = sorted(range(m), key=lambda i: (-values[i], i))
    counts = [0] * m
    remaining = int(k_total)
    for t, lvl in enumerate(order):
        suffix = 0.0
        for j in reversed(order[t:]):  # same accumulation order as the cumsum
            suffix += values[j]
        share = math.ceil(remaining * values[lvl] / suffix) if suffix > 0 else 0
        share = min(share, n, remaining)
        counts[lvl] = share
        remaining -= share
    for lvl in order:
        if not remaining:
            break
        add = min(n - counts[lvl], remaining)
        counts[lvl] += add
        remaining -= add
    assert remaining == 0
    return counts


# ---------------------------------------------------------------- sequences


def test_pw_sequence_small_hand_value():
    # beta = 2^(1/4): weights for N=8 are 0, 1, 1.19, 2.19, 1.41, 2.41,
    # 2.60, 3.60 giving the ascending order below
    assert list(pw_sequence(8).order) == [0, 1, 2, 4, 3, 5, 6, 7]


@pytest.mark.parametrize("n", (32, 256, 4096))
def test_pw_sequence_is_permutation(n):
    seq = pw_sequence(n)
    assert sorted(seq.order) == list(range(n))
    assert seq.order[0] == 0 and seq.order[-1] == n - 1


def test_five_g_sequence_matches_independent_transcription():
    with open(DATA / "polar_reliability_crosscheck.json") as fh:
        want = json.load(fh)
    seq = five_g_sequence()
    assert seq.max_len == 1024
    assert list(seq.order) == want


def test_restrict_is_subsequence_filter():
    seq = five_g_sequence()
    full = list(seq.order)
    for n in (32, 128, 512):
        assert list(seq.restrict(n)) == [i for i in full if i < n]
    with pytest.raises(ValueError):
        seq.restrict(2048)
    for n in (0, 100):
        with pytest.raises(ValueError, match="power of two"):
            seq.restrict(n)
    with pytest.raises(ValueError, match="power of two"):
        construct_rf1(4, 40, 100)
    with pytest.raises(ValueError, match="power of two"):
        construct_rf2(4, 40, 100)


def test_top_k_nesting():
    seq = five_g_sequence()
    assert list(seq.top_k(8, 4)) == [3, 5, 6, 7]
    for n in (64, 256):
        prev: set[int] = set()
        for k in (0, 5, 17, n // 2, n):
            cur = set(seq.top_k(n, k))
            assert len(cur) == k and prev <= cur
            prev = cur


def test_default_sequence_dispatch():
    assert default_sequence(256).name == five_g_sequence().name
    assert default_sequence(2048).name == pw_sequence(2048).name


def test_load_rank_sequence_round_trip(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("\n".join(map(str, [0, 2, 1, 3])))
    seq = load_rank_sequence(path)
    assert list(seq.order) == [0, 2, 1, 3] and seq.max_len == 4

    bad = tmp_path / "dup.txt"
    bad.write_text("0\n1\n1\n3\n")
    with pytest.raises(ValueError):
        load_rank_sequence(bad)


# ---------------------------------------------------------------- rate_fill


def test_rate_fill_hand_examples():
    assert list(rate_fill(np.array([0.8, 0.8]), 8, 5).counts) == [4, 4]
    assert list(rate_fill(np.array([0.8, 0.8]), 7, 5).counts) == [4, 3]


def test_rate_fill_cap_and_spill():
    # dominant level saturates at N, the excess flows onward
    alloc = rate_fill(np.array([10.0, 1.0, 1.0]), 12, 8)
    assert list(alloc.counts) == [8, 2, 2]
    # zero-valued tail still absorbs forced bits
    alloc = rate_fill(np.array([1.0, 0.0]), 6, 4)
    assert list(alloc.counts) == [4, 2]


def test_rate_fill_validation():
    with pytest.raises(ValueError):
        rate_fill(np.array([0.0, 0.0]), 1, 4)
    with pytest.raises(ValueError):
        rate_fill(np.array([1.0, -0.1]), 1, 4)
    with pytest.raises(ValueError):
        rate_fill(np.array([1.0, 1.0]), 9, 4)


def test_rate_fill_matches_step_trace():
    rng = np.random.default_rng(42)
    for trial in range(200):
        m = int(rng.integers(1, 9))
        n = int(2 ** rng.integers(2, 9))
        v = rng.uniform(0.0, 1.0, m)
        v[rng.random(m) < 0.25] = 0.0
        if trial % 3 == 0 and m > 1:  # force exact ties
            v[: m // 2 + 1] = v[0]
        if not np.any(v > 0):
            v[int(rng.integers(m))] = 0.5
        k = int(rng.integers(0, m * n + 1))
        alloc = rate_fill(v, k, n)
        assert list(alloc.counts) == _rate_fill_oracle(list(v), k, n)
        assert int(alloc.counts.sum()) == k


def test_rate_fill_order_recorded():
    alloc = rate_fill(np.array([0.3, 0.9, 0.9, 0.1]), 7, 8)
    assert list(alloc.level_order) == [1, 2, 0, 3]


# ------------------------------------------------------------------ solvers


def test_solve_snr_capacity_anchor():
    got = solve_snr_capacity(build_qam(4), 2.0)
    assert abs(got - 5.118327286725189) < 1e-9


def test_solver_residuals():
    for m, rt in ((2, 1.0), (4, 2.4), (6, 3.0), (8, 5.5)):
        c = build_qam(m)
        snr = solve_snr_capacity(c, rt)
        assert abs(float(np.sum(level_stats(c, snr)[0])) - rt) < 1e-9
        snr_f = solve_snr_finite(c, rt, 256, 0.1)
        assert abs(float(np.sum(finite_bl_values(c, snr_f, 256, 0.1))) - rt) < 1e-9
        # backoff penalty always costs SNR
        assert snr_f > snr


def test_solver_rejects_out_of_range_rates():
    c = build_qam(2)
    for rt in (0.0, -1.0, 2.0, 2.5):
        with pytest.raises(ValueError):
            solve_snr_capacity(c, rt)
        with pytest.raises(ValueError):
            solve_snr_finite(c, rt, 256, 0.1)


def test_finite_solver_half_eps_degenerates():
    c = build_qam(4)
    for rt in (1.2, 2.0, 3.3):
        assert solve_snr_finite(c, rt, 256, 0.5) == solve_snr_capacity(c, rt)


def test_finite_solver_long_blocks_approach_capacity():
    c = build_qam(4)
    gap = solve_snr_finite(c, 2.0, 10**9, 0.1) - solve_snr_capacity(c, 2.0)
    assert 0.0 <= gap < 1e-3


def test_finite_bl_values_composition():
    c = build_qam(6)
    snr, n, eps = 8.0, 512, 0.1
    caps, disps, _ = level_stats(c, snr)
    want = np.maximum(0.0, caps - np.sqrt(disps / n) * q_inverse(eps))
    assert np.allclose(finite_bl_values(c, snr, n, eps), want, atol=1e-12)


def test_finite_bl_rate_on_level_stats_arrays_is_finite_bl_values_unclamped():
    # the normal-approximation rate has one home: finite_bl_values is
    # finite_bl_rate on the level_stats arrays, clamped at zero, bit for bit
    for m, snr, n, eps in ((2, -3.0, 16, 0.01), (4, 6.0, 256, 0.1),
                           (6, 8.0, 512, 0.5), (8, 20.0, 64, 1e-4)):
        c = build_qam(m)
        cap, disp, _ = level_stats(c, snr)
        rate = finite_bl_rate(cap, disp, n, eps)
        want = cap - np.sqrt(disp / n) * q_inverse(eps)
        assert rate.shape == (m,)
        assert np.array_equal(rate.view(np.int64), want.view(np.int64))
        assert np.array_equal(np.maximum(rate, 0.0).view(np.int64),
                              finite_bl_values(c, snr, n, eps).view(np.int64))
    with pytest.raises(ValueError, match="dispersion must be nonnegative"):
        finite_bl_rate(np.array([0.5, 0.5]), np.array([0.1, -0.1]), 32, 0.1)


@pytest.mark.filterwarnings("error")
def test_finite_bl_values_rejects_n_below_one():
    # n = 0 used to divide by zero and return values
    c = build_qam(4)
    for n in (0, -256, 0.5, float("nan")):
        with pytest.raises(ValueError, match="n must be >= 1"):
            finite_bl_values(c, 6.0, n, 0.1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        solve_snr_finite(c, 2.0, 0, 0.1)


# ---------------------------------------------------------- RF constructions


def test_rf1_anchor_16qam_half_rate():
    cons = construct_rf1(4, 512, 256)
    assert [len(a) for a in cons.info_sets] == [165, 165, 91, 91]
    assert cons.k_total == 512 and cons.method == "rf1"
    assert list(cons.crc_lens) == [16, 16, 16, 16]


def test_rf2_anchor_16qam_half_rate():
    cons = construct_rf2(4, 512, 256, eps=0.1)
    assert [len(a) for a in cons.info_sets] == [164, 164, 93, 91]


def test_rf2_design_snr_anchor():
    cons = construct_rf2(4, 64, 32, eps=0.1)
    assert abs(cons.design_snr_db - 7.8766796071230285) < 1e-9
    assert [len(a) for a in cons.info_sets] == [21, 20, 12, 11]
    assert list(cons.crc_lens) == [16, 16, 0, 0]


def test_rf_info_sets_are_top_k_of_sequence():
    seq = five_g_sequence()
    cons = construct_rf1(4, 300, 128)
    for k, a in enumerate(cons.info_sets):
        assert np.array_equal(a, seq.top_k(128, len(a)))
        assert np.all(np.diff(a) > 0)


def test_rf_full_rate_saturated():
    cons = construct_rf2(2, 128, 64)
    assert all(np.array_equal(a, np.arange(64)) for a in cons.info_sets)


@pytest.mark.parametrize("eps", (0.0, 1.0, 1.5, float("nan")))
def test_rf2_saturated_rejects_bad_eps(eps):
    # K = mN skips the SNR solve, and so its eps check, unless checked first
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
        construct_rf2(2, 64, 32, eps=eps)
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
        construct_rf2(2, 63, 32, eps=eps)


@pytest.mark.parametrize("construct,m,n", ((construct_rf1, 3, 16),
                                            (construct_rf2, 5, 8),
                                            (construct_rf1, 0, 16)))
def test_rf_saturated_rejects_bad_m(construct, m, n):
    # K = mN skips the SNR solve, which builds the constellation, unless m
    # is checked first
    for k in (m * n, m * n - 1):
        with pytest.raises(ValueError, match="square QAM needs even m >= 2"):
            construct(m, k, n)


def test_rf_m1_degenerates_to_plain_polar():
    seq = five_g_sequence()
    for build in (construct_rf1, lambda m, k, n: construct_rf2(m, k, n, eps=0.1)):
        cons = build(1, 100, 256)
        assert np.array_equal(cons.info_sets[0], seq.top_k(256, 100))


def test_rf2_half_eps_equals_rf1():
    for m, k, n in ((2, 100, 128), (4, 300, 128), (6, 500, 256)):
        a = construct_rf1(m, k, n)
        b = construct_rf2(m, k, n, eps=0.5)
        assert a.design_snr_db == b.design_snr_db
        assert all(np.array_equal(x, y) for x, y in zip(a.info_sets, b.info_sets))


def _rf_record(cons):
    return (cons.allocation.counts.tolist(), cons.allocation.level_order.tolist(),
            [a.tolist() for a in cons.info_sets], cons.crc_lens,
            None if cons.design_snr_db is None else cons.design_snr_db.hex())


def test_rf1_is_rf2_at_half_eps_relabelled_over_grid():
    # RF-I is RF-II at eps = 0.5: Qinv(0.5) is a signed zero, so the
    # normal-approximation rates are the capacities bit for bit
    for m in (1, 2, 4, 6, 8):
        for n in (16, 64, 256, 1024):
            for k in [round(m * n * j / 10) for j in range(1, 10)] + [m * n]:
                a = construct_rf1(m, k, n)
                b = construct_rf2(m, k, n, eps=0.5)
                assert (a.method, a.eps, b.method, b.eps) == ("rf1", None, "rf2", 0.5)
                assert _rf_record(a) == _rf_record(b), (m, n, k)


def test_rf_deterministic():
    a = construct_rf2(6, 900, 256, eps=0.1)
    b = construct_rf2(6, 900, 256, eps=0.1)
    assert a.design_snr_db == b.design_snr_db
    assert all(np.array_equal(x, y) for x, y in zip(a.info_sets, b.info_sets))


def test_rf_sorts_only_level_values(monkeypatch):
    sizes = []
    order_levels = construction._order_levels

    def counting(values):
        sizes.append(len(values))
        return order_levels(values)

    monkeypatch.setattr(construction, "_order_levels", counting)
    construct_rf1(8, 1000, 256)
    assert sizes == [8]
    sizes.clear()
    construct_rf2(8, 1000, 256, eps=0.1)
    assert sizes == [8]


def test_rf_rejects_infeasible_k():
    with pytest.raises(ValueError):
        construct_rf1(2, 2 * 64 + 1, 64)


# ------------------------------------------------------------------ GA path


def test_ln_phi_branches():
    xs_low = np.linspace(1e-6, 9.999, 500)
    xs_high = np.linspace(10.0, 80.0, 500)
    assert np.all(np.diff(ln_phi(xs_low)) < 0)
    assert np.all(np.diff(ln_phi(xs_high)) < 0)
    # closed-form spot checks of both segments
    assert abs(ln_phi(np.array([4.0]))[0] - (-0.4527 * 4.0**0.86 + 0.0218)) < 1e-12
    want_hi = -25.0 + 0.5 * (np.log(np.pi) - np.log(100.0)) + np.log1p(-10.0 / 700.0)
    assert abs(ln_phi(np.array([100.0]))[0] - want_hi) < 1e-12


def _tanh_mean(z: float, nodes: int = 127) -> float:
    # E tanh(L/2) for L ~ N(z, 2z)
    t, w = np.polynomial.hermite.hermgauss(nodes)
    return float(np.sum(w * np.tanh((z + 2.0 * np.sqrt(z) * t) / 2.0)) / np.sqrt(np.pi))


def _tanh_equivalent_mean(target: float) -> float:
    lo, hi = 1e-9, 200.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _tanh_mean(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("z", (1.5, 4.0))
def test_ga_check_update_against_monte_carlo(z):
    rng = np.random.default_rng(9)
    n = 400_000
    l1 = rng.normal(z, np.sqrt(2 * z), n)
    l2 = rng.normal(z, np.sqrt(2 * z), n)
    c = 2.0 * np.arctanh(np.clip(np.tanh(l1 / 2) * np.tanh(l2 / 2), -1 + 1e-15, 1 - 1e-15))
    want = _tanh_equivalent_mean(float(np.mean(np.tanh(c / 2.0))))
    got = float(ga_check_update(np.array([z]))[0])
    assert abs(got - want) / want < 0.02


def test_ga_evolve_small_structure():
    m0 = 3.0
    assert np.allclose(ga_evolve(m0, 1), [m0])
    c1 = float(ga_check_update(np.array([m0]))[0])
    assert np.allclose(ga_evolve(m0, 2), [c1, 2 * m0])
    c11 = float(ga_check_update(np.array([c1]))[0])
    c12 = float(ga_check_update(np.array([2 * m0]))[0])
    assert np.allclose(ga_evolve(m0, 4), [c11, 2 * c1, c12, 4 * m0])


def test_ga_evolve_monotone_in_design_mean():
    a = ga_evolve(1.0, 32)
    b = ga_evolve(2.0, 32)
    assert np.all(b >= a) and np.all(a > 0)


def test_ga_evolve_stacked_matches_per_mean():
    # one evolution of several design means equals one evolution per mean,
    # bit for bit, at the 16QAM N=256 level means of three design SNRs
    c = build_qam(4)
    for snr in (5.0, 6.25, 7.0):
        cap = np.clip(level_stats(c, snr)[0], 1e-12, 1.0 - 1e-12)
        means = np.array([2.0 / biawgn_sigma_for_capacity(float(ck)) ** 2
                          for ck in cap])
        stacked = ga_evolve(means, 256)
        assert stacked.shape == (4, 256)
        for k, m0 in enumerate(means):
            assert np.array_equal(stacked[k], ga_evolve(float(m0), 256))
    grid = np.array([[0.5, 1.0, 3.0], [7.0, 20.0, 0.01]])
    stacked = ga_evolve(grid, 32)
    assert stacked.shape == (2, 3, 32)
    for idx in np.ndindex(grid.shape):
        assert np.array_equal(stacked[idx], ga_evolve(float(grid[idx]), 32))
    with pytest.raises(ValueError):
        ga_evolve(np.array([1.0, 0.0]), 8)


def test_ga_evolve_ordering_matches_density_evolution():
    # genie-aided Monte Carlo density evolution through the N=8 graph
    snr_db = 2.0
    sigma = noise_sigma(snr_db)
    m0 = 2.0 / sigma**2
    rng = np.random.default_rng(123)
    dists = [rng.normal(m0, np.sqrt(2 * m0), 1_600_000)]
    for _ in range(3):
        new = []
        for s in dists:
            half = s.size // 2
            a, b = s[:half], s[half:]
            t = np.clip(np.tanh(a / 2) * np.tanh(b / 2), -1 + 1e-15, 1 - 1e-15)
            new.append(2.0 * np.arctanh(t))
            new.append(a + b)
        dists = new
    perr = np.array([float(np.mean(s < 0)) for s in dists])
    se = np.sqrt(perr * (1 - perr) / dists[0].size)
    means = ga_evolve(m0, 8)
    for i in range(8):
        for j in range(8):
            if perr[i] + 5 * (se[i] + se[j]) < perr[j]:
                assert means[i] > means[j]


def test_construct_ga_invariants():
    c = build_qam(4)
    cons = construct_ga(c, 200, 64, 6.0)
    assert cons.method == "ga" and cons.k_total == 200
    assert sum(len(a) for a in cons.info_sets) == 200
    again = construct_ga(c, 200, 64, 6.0)
    assert all(np.array_equal(x, y) for x, y in zip(cons.info_sets, again.info_sets))
    for a in cons.info_sets:
        assert np.all(np.diff(a) > 0) and (len(a) == 0 or (a[0] >= 0 and a[-1] < 64))


# Info sets of construct_ga(16QAM, K=64, N=32) per level, recorded before the
# Gauss-Hermite rule was cached; the surrogate bisection must not move them.
GA_INFO_SETS = {
    4.0: [[7, 11, 12, 13, 14, 15] + list(range(17, 32))] * 2
         + [[15, 21, 22, 23] + list(range(25, 32))] * 2,
    9.0: [[7, 11, 13, 14, 15] + list(range(18, 32))] * 2
         + [[14, 15, 19, 21, 22, 23] + list(range(25, 32))] * 2,
}


@pytest.mark.parametrize("snr", sorted(GA_INFO_SETS))
def test_construct_ga_info_sets_pinned(snr):
    cons = construct_ga(build_qam(4), 64, 32, snr)
    assert [s.tolist() for s in cons.info_sets] == GA_INFO_SETS[snr]


def test_construct_ga_extreme_snr_still_valid():
    c = build_qam(2)
    for snr in (-40.0, 50.0):
        cons = construct_ga(c, 40, 32, snr)
        assert sum(len(a) for a in cons.info_sets) == 40


def test_construct_ga_saturated():
    c = build_qam(2)
    cons = construct_ga(c, 2 * 16, 16, 5.0)
    assert all(np.array_equal(a, np.arange(16)) for a in cons.info_sets)


def test_construct_ga_m1_tracks_bpsk_reliability():
    b = build_constellation(1)
    k, n = 40, 128
    cons = construct_ga(b, k, n, 1.0)
    sigma = biawgn_sigma_for_capacity(min(1 - 1e-12, k / n))
    means = ga_evolve(2.0 / sigma**2, n)
    want = np.sort(np.argsort(-means, kind="stable")[:k])
    assert np.array_equal(cons.info_sets[0], want)


def _phi_inv_ln_80_steps(target, hi):
    # frozen copy of the bisection before it stopped at its fixed point
    lo = np.zeros_like(hi)
    hi = hi.copy()
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        too_small = ln_phi(mid) > target
        lo = np.where(too_small, mid, lo)
        hi = np.where(too_small, hi, mid)
    return 0.5 * (lo + hi)


def test_phi_inv_ln_matches_80_step_loop(monkeypatch):
    # the check-update inputs over the whole GA range, both phi segments
    z = np.concatenate([np.geomspace(1e-4, 1e5, 400),
                        np.random.default_rng(21).uniform(0.01, 40.0, 400)])
    lp = ln_phi(z)
    target = np.log(2.0) + lp + np.log1p(-0.5 * np.exp(lp))
    assert np.array_equal(construction._phi_inv_ln(target, z.copy()),
                          _phi_inv_ln_80_steps(target, z.copy()))
    c = build_qam(4)
    means = np.array([2.0 / biawgn_sigma_for_capacity(float(ck)) ** 2
                      for snr in (-2.0, 3.0, 6.5, 12.0, 20.0)
                      for ck in np.clip(level_stats(c, snr)[0], 1e-12, 1 - 1e-12)])
    got = ga_evolve(means, 256)
    monkeypatch.setattr(construction, "_phi_inv_ln", _phi_inv_ln_80_steps)
    assert np.array_equal(got, ga_evolve(means, 256))


def test_construct_ga_bisects_each_distinct_capacity_once(monkeypatch):
    calls = []

    def counting(cap, *args):
        calls.append(cap)
        return biawgn_sigma_for_capacity(cap, *args)

    want = construct_ga(build_qam(6), 600, 128, 11.0)
    monkeypatch.setattr(construction, "biawgn_sigma_for_capacity", counting)
    got = construct_ga(build_qam(6), 600, 128, 11.0)
    assert len(calls) == len(set(calls)) == 3  # three axis levels, paired
    assert all(np.array_equal(a, b) for a, b in zip(want.info_sets, got.info_sets))


@pytest.mark.parametrize("m,k,n,snr,means", ((4, 64, 32, 6.0, 2),
                                             (8, 600, 128, 24.0, 4)))
def test_construct_ga_evolves_each_distinct_design_mean_once(monkeypatch, m, k, n,
                                                              snr, means):
    # square QAM's paired levels share one evolution of their design mean
    shapes = []

    def recording(design_llr_mean, n):
        shapes.append(np.shape(design_llr_mean))
        return ga_evolve(design_llr_mean, n)

    want = construct_ga(build_qam(m), k, n, snr)
    monkeypatch.setattr(construction, "ga_evolve", recording)
    got = construct_ga(build_qam(m), k, n, snr)
    assert shapes == [(means,)]
    assert all(np.array_equal(a, b) for a, b in zip(want.info_sets, got.info_sets))
    # the info sets of one evolution per level
    cap = np.clip(level_stats(build_qam(m), snr)[0], 1e-12, 1.0 - 1e-12)
    sigma = np.array([biawgn_sigma_for_capacity(float(c)) for c in cap])
    rel = ga_evolve(2.0 / sigma**2, n)
    lvl, idx = np.divmod(np.arange(m * n), n)
    ranked = np.lexsort((idx, lvl, -rel.ravel()))[:k]
    assert [a.tolist() for a in got.info_sets] == \
        [np.sort(idx[ranked[lvl[ranked] == j]]).tolist() for j in range(m)]


def test_brentq_matches_scipy_bitwise(monkeypatch):
    from scipy.optimize import brentq
    # the criterion-2 targets, then a seeded random grid of m, N, rate, eps
    cases = [(e.m, e.m * e.rate, 256, 0.1)
             for e in sorted(load_mcs_table(), key=lambda e: (e.m, e.rate))]
    rng = np.random.default_rng(17)
    for _ in range(30):
        m = int(rng.choice([1, 2, 4, 6, 8]))
        cases.append((m, m * float(rng.uniform(0.02, 0.98)),
                      int(rng.choice([32, 128, 256, 1024])),
                      float(rng.uniform(0.005, 0.6))))

    def roots():
        return [(solve_snr_capacity(build_constellation(m), rt).hex(),
                 solve_snr_finite(build_constellation(m), rt, n, eps).hex())
                for m, rt, n, eps in cases]

    got = roots()
    monkeypatch.setattr(construction, "_brentq",
                        lambda *args, **kw: float(brentq(*args, **kw)))
    assert got == roots()


def test_rf_matches_scipy_erfcinv_bitwise_at_the_rate_home(monkeypatch):
    # the penalty Qinv(eps) is read in mp_analysis.finite_bl_rate, the one
    # home of the normal-approximation rate; SciPy's erfcinv there changes no
    # construction, RF-I (eps = 0.5) included
    from scipy.special import erfcinv
    from mlcpcm import mp_analysis
    cases = [(m, n, eps, round(m * n * r))
             for m in (1, 2, 4, 6, 8) for n in (32, 256)
             for eps in (0.01, 0.1, 0.3, 0.5) for r in (0.2, 0.5, 0.8)]

    def builds():
        out = []
        for m, n, eps, k in cases:
            for cons in (construct_rf2(m, k, n, eps=eps), construct_rf1(m, k, n)):
                out.append((cons.design_snr_db.hex(),
                            [s.tolist() for s in cons.info_sets]))
        return out

    got = builds()
    calls = []

    def scipy_q_inverse(p):
        calls.append(p)
        return float(np.sqrt(2.0) * erfcinv(2.0 * p))

    monkeypatch.setattr(mp_analysis, "q_inverse", scipy_q_inverse)
    assert got == builds()
    assert calls  # the patched name is the one the constructions read


def test_brentq_errors_and_endpoints():
    with pytest.raises(ValueError, match="different signs"):
        construction._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 8.9e-16)
    with pytest.raises(RuntimeError, match="converge"):
        construction._brentq(lambda x: x**3 - 2.0, 0.0, 10.0, 1e-12, 8.9e-16,
                             maxiter=3)
    assert construction._brentq(lambda x: x - 2.0, 2.0, 5.0, 1e-12, 8.9e-16) == 2.0
    assert construction._brentq(lambda x: x - 5.0, 2.0, 5.0, 1e-12, 8.9e-16) == 5.0
    root = construction._brentq(lambda x: x**3 - 2.0, 0.0, 10.0, 1e-12, 8.9e-16)
    assert abs(root - 2.0 ** (1 / 3)) < 1e-12


def test_construction_path_loads_no_scipy_submodules():
    # in a fresh interpreter: pytest itself has already imported scipy here
    code = (
        "import contextlib, io, sys\n"
        "import mlcpcm\n"
        "from mlcpcm import cli\n"
        "mlcpcm.construct_ga(mlcpcm.build_qam(4), 64, 32, 6.0)\n"
        "mlcpcm.construct_rf1(4, 64, 32)\n"
        "mlcpcm.solve_snr_capacity(mlcpcm.build_qam(6), 3.0)\n"
        "mlcpcm.q_function(mlcpcm.q_inverse(0.1))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['construct', '--m', '4', '--n', '32', '--k', '64']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    src = Path(construction.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "[]"


def test_rf2_path_loads_no_scipy_submodules():
    # in a fresh interpreter: pytest itself has already imported scipy here
    code = (
        "import sys\n"
        "import mlcpcm\n"
        "mlcpcm.construct_rf2(4, 64, 32)\n"
        "mlcpcm.finite_bl_values(mlcpcm.build_qam(4), 6.0, 32, 0.1)\n"
        "mlcpcm.run_bler(mlcpcm.SimConfig(method='rf2', m=4, n=32, k=64,\n"
        "    snr_grid_db=(6.0,), list_size=2, max_blocks=16, max_errors=16))\n"
        "table = (mlcpcm.McsEntry(index=0, m=2, rate_x1024=256),)\n"
        "lut = mlcpcm.build_bler_lut('rf2', table, 16, span_db=2.0, step_db=2.0,\n"
        "    list_size=1, max_blocks=8, max_errors=4)\n"
        "mlcpcm.run_throughput(mlcpcm.SimConfig(method='rf2', m=2, n=16, k=0,\n"
        "    snr_grid_db=(6.0,), list_size=1, max_blocks=8), table, lut)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    src = Path(construction.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "[]"
