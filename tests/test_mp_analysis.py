import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from mlcpcm.constellation import build_bpsk, build_qam
from mlcpcm import mp_analysis
from mlcpcm.mp_analysis import (
    SNR_CLIP_DB,
    biawgn_capacity,
    biawgn_sigma_for_capacity,
    channel_capacity,
    finite_bl_rate,
    level_stats,
    noise_n0,
    noise_sigma,
    per_level_error_prob,
    q_function,
    q_inverse,
    subchannel_capacity,
    subchannel_dispersion,
    _gauss_hermite,
    _pam_stats,
)

from demap_reference import demap_tables

LN2 = np.log(2.0)


def _pam_mi_oracle(amps: np.ndarray, sigma: float, nodes: int = 256) -> float:
    # direct equivocation quadrature for a uniform PAM input, in bits
    t, w = hermgauss(nodes)
    y = amps[:, None] + np.sqrt(2.0) * sigma * t[None, :]
    lp = -((y[..., None] - amps) ** 2) / (2.0 * sigma**2)
    mix = np.log(np.mean(np.exp(lp - lp.max(-1, keepdims=True)), axis=-1))
    mix += lp.max(-1, keepdims=False)
    own = -((y - amps[:, None]) ** 2) / (2.0 * sigma**2)
    dens = (own - mix) / LN2
    return float(np.mean(dens @ w) / np.sqrt(np.pi))


def _mc_level_moments(c, snr_db: float, samples: int, seed: int):
    # Monte Carlo per-level information densities straight from the frozen
    # full-label demap tables: i_k = T_k[prefix_k] - T_{k-1}[prefix_{k-1}] + ln 2
    # (in nats)
    rng = np.random.default_rng(seed)
    sigma = noise_sigma(snr_db)
    lab = rng.integers(0, c.order, samples)
    y = c.points[lab] + sigma * (
        rng.standard_normal(samples) + 1j * rng.standard_normal(samples)
    )
    tabs = demap_tables(c, y, 2.0 * sigma**2)
    rows = np.arange(samples)
    caps, disps = [], []
    prev = tabs[0][..., 0]
    for k in range(1, c.m + 1):
        cur = tabs[k][rows, lab >> (c.m - k)]
        dens = (cur - prev) / LN2 + 1.0
        caps.append(float(dens.mean()))
        disps.append(float(dens.var()))
        prev = cur
    return np.array(caps), np.array(disps)


def test_q_function_basics():
    assert abs(q_function(0.0) - 0.5) < 1e-15
    assert abs(q_function(1.2815515655446004) - 0.1) < 1e-12
    for p in (0.3, 0.1, 1e-3, 1e-6):
        assert abs(q_function(q_inverse(p)) - p) < 1e-12 * max(p, 1e-9) + 1e-15


def _q_inverse_sweep() -> np.ndarray:
    # uniform, log-uniform down to 1e-300, within 1e-16 of 1 (one double) and
    # the 1000 doubles below it, the nextafter neighbours of ndtri's branch
    # points exp(-2), 1 - exp(-2) and exp(-32) (z = 8), and rf2's eps values
    rng = np.random.default_rng(20261018)
    parts = [rng.uniform(0.0, 1.0, 6000), 10.0 ** rng.uniform(-300.0, 0.0, 6000),
             1.0 - rng.uniform(0.0, 1e-16, 100), 1.0 - np.arange(1, 1001) * 2.0**-53,
             [0.01, 0.1, 0.3, 0.5]]
    for point in (np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0)):
        lo = hi = point
        near = [point]
        for _ in range(8):
            lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
            near += [lo, hi]
        parts.append(near)
    p = np.concatenate([np.asarray(a, dtype=np.float64) for a in parts])
    return p[(p > 0.0) & (p < 1.0)]


def test_q_inverse_matches_scipy_bitwise():
    from scipy.special import erfcinv
    p = _q_inverse_sweep()
    assert p.size >= 10_000
    want = np.sqrt(2.0) * erfcinv(2.0 * p)
    got = q_inverse(p)
    assert got.dtype == np.float64 and got.shape == p.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for v in (0.01, 0.1, 0.3, 0.5, np.exp(-2.0), np.exp(-32.0), 1e-300):
        x = q_inverse(v)
        assert type(x) is float
        assert x.hex() == float(np.sqrt(2.0) * erfcinv(2.0 * v)).hex()
    grid = p[:12].reshape(3, 4)
    out = q_inverse(grid)
    assert out.shape == (3, 4) and out.dtype == np.float64
    assert np.array_equal(out, np.sqrt(2.0) * erfcinv(2.0 * grid))


def test_q_inverse_rejects_p_outside_open_unit_interval():
    for p in (0.0, 1.0, -0.1, 1.5, np.nan, np.inf, -np.inf,
              np.array([0.1, np.nan]), np.array([[0.2], [1.0]])):
        with pytest.raises(ValueError, match="0 < p < 1"):
            q_inverse(p)
    with pytest.raises(ValueError, match="0 < p < 1"):
        finite_bl_rate(0.5, 0.1, 32, np.nan)


def test_per_level_error_prob():
    assert abs(per_level_error_prob(0.1, 4) - (1.0 - 0.9 ** 0.25)) < 1e-15
    assert per_level_error_prob(0.0, 3) == 0.0
    assert abs(per_level_error_prob(0.5, 1) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        per_level_error_prob(1.0, 2)
    with pytest.raises(ValueError):
        per_level_error_prob(-0.1, 2)


def test_finite_bl_rate_formula():
    for i, v, n, eps in ((0.5, 0.25, 256, 0.1), (2.1, 1.3, 1024, 0.01)):
        want = i - np.sqrt(v / n) * q_inverse(eps)
        assert abs(finite_bl_rate(i, v, n, eps) - want) < 1e-12
    # zero dispersion leaves the capacity untouched
    assert finite_bl_rate(0.7, 0.0, 128, 0.1) == 0.7


def test_noise_sigma():
    assert abs(noise_sigma(0.0) - np.sqrt(0.5)) < 1e-15
    assert abs(noise_sigma(10.0) - np.sqrt(0.05)) < 1e-15


@pytest.mark.parametrize("snr", (float("nan"), float("-inf"), -3083.0, -4000.0))
def test_nan_and_overflowing_snrs_have_no_n0(snr):
    # below about -3082 dB 10^(-snr/10) overflowed with a bare OverflowError,
    # and a NaN SNR gave NaN statistics cached under a NaN key
    with pytest.raises(ValueError, match="has no finite N0"):
        noise_n0(snr)
    keys = set(mp_analysis._stats_cache)
    with pytest.raises(ValueError, match="has no finite N0"):
        level_stats(build_qam(4), snr)
    assert set(mp_analysis._stats_cache) == keys


def test_noise_n0_is_the_scalar_power_up_to_the_overflow():
    for snr in (-3082.0, -40.0, 0.0, 6.5, 50.0):
        assert noise_n0(snr) == 10.0 ** (-snr / 10.0)


@pytest.mark.parametrize("m", (1, 4))
def test_level_stats_above_the_clip_are_those_at_the_clip(m):
    # 10^(-snr/10) underflows to 0 near 3240 dB, where every statistic was
    # NaN; the simulator's clip holds here too
    c = build_bpsk() if m == 1 else build_qam(m)
    cap, disp, total = level_stats(c, 4000.0)
    want = level_stats(c, SNR_CLIP_DB)
    assert np.array_equal(cap, want[0]) and np.array_equal(disp, want[1])
    assert total == want[2] and abs(total - m) < 1e-12
    assert noise_sigma(4000.0) == noise_sigma(SNR_CLIP_DB) > 0.0


@pytest.mark.parametrize("m", (1, 4))
def test_level_stats_above_the_clip_share_the_clip_entry(m):
    # every SNR above the clip has the clip's statistics, so one cache entry
    c = build_bpsk() if m == 1 else build_qam(m)
    assert level_stats(c, 4000.0) is level_stats(c, SNR_CLIP_DB)
    assert level_stats(c, float("inf")) is level_stats(c, SNR_CLIP_DB)


@pytest.mark.parametrize("m", (2, 4, 6, 8))
def test_chain_rule_against_direct_quadrature(m):
    c = build_qam(m)
    amps = np.unique(c.points.real)
    for snr in (-2.0, 5.0, 12.0):
        caps, _, total = level_stats(c, snr)
        want = 2.0 * _pam_mi_oracle(amps, noise_sigma(snr))
        assert abs(float(np.sum(caps)) - want) < 1e-8
        assert abs(total - want) < 1e-8
        assert abs(channel_capacity(c, snr) - want) < 1e-8


def test_capacity_monotone_and_limits():
    for m, top in ((2, 10.0), (4, 18.0)):
        c = build_qam(m)
        grid = np.arange(-10.0, top, 2.5)
        caps = np.array([channel_capacity(c, s) for s in grid])
        assert np.all(np.diff(caps) > 0)
        assert channel_capacity(c, -40.0) < 1e-3
        assert m - channel_capacity(c, 60.0) < 1e-6
        sums = np.array([float(np.sum(level_stats(c, s)[0])) for s in grid])
        assert np.all(np.diff(sums) > 0)


def test_dispersion_nonnegative_and_vanishes():
    for m in (2, 4, 6):
        c = build_qam(m)
        for snr in (-5.0, 0.0, 8.0, 20.0):
            _, disp, _ = level_stats(c, snr)
            assert np.all(disp >= 0.0)
        _, disp_hi, _ = level_stats(c, 60.0)
        assert float(np.sum(disp_hi)) < 1e-4


def test_quadrature_convergence():
    # the packaged 256-node rule against SciPy's 128- and 512-node rules
    from scipy.special import roots_hermite
    c = build_qam(4)
    amps = c.amp_by_label
    for snr in (0.0, 10.0):
        sigma = noise_sigma(snr)
        a = np.repeat(_pam_stats(amps, sigma, *roots_hermite(128))[0], 2)
        b = level_stats(c, snr)[0]
        d = np.repeat(_pam_stats(amps, sigma, *roots_hermite(512))[0], 2)
        assert np.max(np.abs(a - b)) < 1e-9
        assert np.max(np.abs(b - d)) < 1e-10


def test_bpsk_equals_biawgn():
    b = build_bpsk()
    for snr in (-3.0, 0.0, 6.0):
        sigma = noise_sigma(snr)
        assert abs(channel_capacity(b, snr) - biawgn_capacity(sigma)) < 1e-9
        assert abs(subchannel_capacity(b, 1, snr) - biawgn_capacity(sigma)) < 1e-9


def test_biawgn_sigma_round_trip():
    for cap in (0.1, 0.5, 0.9):
        sigma = biawgn_sigma_for_capacity(cap)
        assert abs(biawgn_capacity(sigma) - cap) < 1e-9


def test_level_stats_match_monte_carlo():
    c = build_qam(4)
    snr = 6.0
    caps, disps, _ = level_stats(c, snr)
    mc_caps, mc_disps = _mc_level_moments(c, snr, samples=200_000, seed=11)
    assert np.max(np.abs(caps - mc_caps)) < 5e-3
    assert np.max(np.abs(disps - mc_disps) / np.maximum(disps, 1e-3)) < 0.05


def test_subchannel_accessors_match_level_stats():
    c = build_qam(6)
    caps, disps, _ = level_stats(c, 9.0)
    for k in range(1, 7):
        assert subchannel_capacity(c, k, 9.0) == caps[k - 1]
        assert subchannel_dispersion(c, k, 9.0) == disps[k - 1]


def test_qam_axis_levels_pair_up():
    c = build_qam(6)
    caps, disps, _ = level_stats(c, 7.0)
    assert np.allclose(caps[0::2], caps[1::2])
    assert np.allclose(disps[0::2], disps[1::2])
    # Gray labels give the first bit the coarsest partition, so it carries
    # the most information at moderate SNR
    assert caps[0] > caps[2] > caps[4]


def test_packaged_gauss_hermite_rule_is_scipys_bitwise():
    from scipy.special import roots_hermite
    t, w = _gauss_hermite()
    want_t, want_w = roots_hermite(256)
    assert t.dtype == w.dtype == np.float64 and t.shape == w.shape == (256,)
    assert t.tobytes() == want_t.tobytes()
    assert w.tobytes() == want_w.tobytes()
    assert not t.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("m", (1, 4))
def test_cached_level_stats_are_read_only(m):
    c = build_qam(m) if m > 1 else build_bpsk()
    cap, disp, _ = level_stats(c, 5.0)
    want = (cap.copy(), disp.copy())
    for arr in (cap, disp):
        with pytest.raises(ValueError):
            arr[0] = 99.0
    again = level_stats(c, 5.0)
    assert np.array_equal(again[0], want[0]) and np.array_equal(again[1], want[1])
