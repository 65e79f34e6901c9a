"""Bit-level subchannel statistics of a modulation partition over complex AWGN.

A 2^m-ary constellation used with multilevel coding splits into m binary
subchannels W_k, where level k sees the channel output together with the
already decided bits (b_1, ..., b_{k-1}) and marginalizes uniformly over the
undecided ones. This module computes per-level mutual information I(W_k),
per-level dispersion V(W_k), the total coded-modulation capacity I(X;Y), and
the normal-approximation finite-blocklength rate built from them.

All integrals are tensor-product Gauss-Hermite quadrature over the complex
noise around each conditional mean, with one rule of 256 nodes per real
dimension: at high SNR the log-mixture integrands develop sharp transitions
and coarser rules leave errors around 1e-5; 256 nodes keeps the change under
node doubling below 1e-8 everywhere on m <= 8, -10..30 dB. For square
Gray-labeled QAM the integrand of every level depends on one noise axis only,
so the tensor product collapses exactly to a one-dimensional rule; BPSK is a
single real axis, so it takes the same rule. Constellations without product
structure are not supported. The rule is packaged data
(``data/gauss_hermite_256.txt``), Q is libm ``erfc`` and Qinv an in-package
port of Cephes ``ndtri``, so nothing here imports SciPy.

SNR is Es/N0 in dB with unit symbol energy, so N0 = 10^(-snr_db/10) and the
per-real-dimension noise variance is N0/2. SNRs above SNR_CLIP_DB are taken
as SNR_CLIP_DB, here and in the simulator, so N0 never underflows to 0.
Information is measured in bits.
"""

from __future__ import annotations

import math
from functools import lru_cache
from importlib import resources

import numpy as np

from .constellation import Constellation, pam_tables

LN2 = np.log(2.0)
SNR_CLIP_DB = 200.0  # higher Es/N0 is taken as this, so N0 stays positive
_SQRT2 = math.sqrt(2.0)

_stats_cache: dict[tuple, tuple[np.ndarray, np.ndarray, float]] = {}


def _per_element(fn, x: np.ndarray) -> float | np.ndarray:
    """fn on each element of x as a Python float (libm, not numpy's SIMD
    loops, which may differ in the last ulp); a float for a 0-d x."""
    out = [fn(v) for v in x.ravel().tolist()]
    return out[0] if x.ndim == 0 else np.array(out).reshape(x.shape)


def q_function(x: float | np.ndarray) -> float | np.ndarray:
    """Gaussian tail probability Q(x) = P(N(0,1) > x) = 0.5 erfc(x / sqrt 2)."""
    return _per_element(lambda v: 0.5 * math.erfc(v / _SQRT2),
                        np.asarray(x, dtype=np.float64))


# Cephes ndtri (S. L. Moshier, Cephes Math Library), the routine behind
# scipy.special.erfcinv: rational approximations in y - 1/2 on the centre
# (P0/Q0) and in 1/sqrt(-2 ln y) on the tails, split at z = 8 (P1/Q1, P2/Q2).
# Cephes leaves the leading 1 of each Q implicit (p1evl); it is written out
# here, and Horner's first step 1.0 * x + q is exactly p1evl's x + q.
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT1_2 = 0.70710678118654752440  # M_SQRT1_2
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner evaluation of coef[0] x^n + ... + coef[n]."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Standard normal quantile on (0, 1), a port of Cephes ``ndtri``: the
    same branches, the same operations in the same order and libm
    ``log``/``sqrt``, so it returns SciPy's ``ndtri`` bit for bit."""
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def q_inverse(p: float | np.ndarray) -> float | np.ndarray:
    """Inverse of q_function on (0, 1).

    Evaluates sqrt(2) erfcinv(2p) with erfcinv(y) = -ndtri(y/2) * M_SQRT1_2,
    as SciPy does.
    """
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p > 0.0) & (p < 1.0)):  # NaN fails both comparisons
        raise ValueError("q_inverse needs 0 < p < 1")
    return _per_element(lambda v: _SQRT2 * (-_ndtri(0.5 * (2.0 * v)) * _SQRT1_2), p)


def per_level_error_prob(eps_total: float, m: int) -> float:
    """Equal per-level split so m independent levels meet a total target:
    eps_k = 1 - (1 - eps_total)^(1/m)."""
    if not 0.0 <= eps_total < 1.0:
        raise ValueError("eps_total must lie in [0, 1)")
    if m < 1:
        raise ValueError("m must be at least 1")
    return 1.0 - (1.0 - eps_total) ** (1.0 / m)


def finite_bl_rate(i: float | np.ndarray, v: float | np.ndarray, n: int,
                   eps: float) -> float | np.ndarray:
    """Normal-approximation achievable rate I - sqrt(V/n) * Qinv(eps),
    elementwise over arrays of (I, V).

    May be negative for weak subchannels; callers clamp at zero where a
    nonnegative fill value is needed.
    """
    if n <= 0:
        raise ValueError("blocklength must be positive")
    if np.any(v < 0):
        raise ValueError("dispersion must be nonnegative")
    return i - np.sqrt(v / n) * q_inverse(eps)


def noise_n0(snr_db: float) -> float:
    """N0 = 10^(-snr/10) at unit Es, snr clipped at SNR_CLIP_DB: a Python scalar
    power, as a vectorised one may differ in the last ulp."""
    return 10.0 ** (-min(float(snr_db), SNR_CLIP_DB) / 10.0)


def noise_sigma(snr_db: float) -> float:
    """Per-real-dimension noise std dev sqrt(N0/2) at Es/N0 = snr_db with Es = 1."""
    return np.sqrt(noise_n0(snr_db) / 2.0)


@lru_cache(maxsize=1)
def _gauss_hermite() -> tuple[np.ndarray, np.ndarray]:
    """Read-only 256-node Gauss-Hermite (nodes, weights), loaded once,
    bit-exact from the packaged float.hex table."""
    text = resources.files("mlcpcm").joinpath(
        "data/gauss_hermite_256.txt").read_text()
    rows = [line.split() for line in text.splitlines()
            if not line.startswith("#")]
    t = np.array([float.fromhex(a) for a, _ in rows])
    w = np.array([float.fromhex(b) for _, b in rows])
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def _pam_stats(amp_by_label: np.ndarray, sigma: float, t: np.ndarray,
               w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-level (I_k, V_k) for k = 1..depth and the total mutual information,
    all in bits, of a Gray-labeled PAM axis with noise std sigma, integrated
    with the Gauss-Hermite rule (t, w) around each of the equiprobable labels.

    ``pam_tables`` holds the ln-mixture value of every label prefix at each
    (sent label, quadrature node) pair; level k's information density is the
    step from the sent label's depth-(k-1) prefix to its depth-k one. The
    total is evaluated from its own density log2[P(y|x)/P(y)] + depth, of
    which the per-level densities are an exact pointwise decomposition.
    """
    half = amp_by_label.size
    y = amp_by_label[:, None] + np.sqrt(2.0) * sigma * t[None, :]  # (S, Q)
    tables = pam_tables(amp_by_label, y, 2.0 * sigma**2)
    # symbol prior times quadrature weight, summing to 1
    weights = np.full((half, 1), 1.0 / half) * (w[None, :] / np.sqrt(np.pi))
    depth = len(tables) - 1
    labels = np.arange(half)
    cap = np.empty(depth)
    disp = np.empty(depth)
    prev = tables[0][..., 0]  # ln P(y | empty prefix), up to the common scale
    for k in range(1, depth + 1):
        cur = tables[k][labels[:, None], np.arange(t.size)[None, :],
                        (labels >> (depth - k))[:, None]]
        dens = (cur - prev) / LN2 + 1.0  # subset halves, hence the +1 bit
        cap[k - 1] = np.sum(weights * dens)
        disp[k - 1] = np.sum(weights * dens**2) - cap[k - 1] ** 2
        prev = cur
    total_dens = (prev - tables[0][..., 0]) / LN2 + depth
    return cap, disp, float(np.sum(weights * total_dens))


def level_stats(c: Constellation,
                snr_db: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(I(W_k) for k=1..m, V(W_k) for k=1..m, I(X;Y)) at the given SNR.

    For square Gray QAM the odd levels are the in-phase axis subchannels and
    the even levels the quadrature ones; the two axes carry the same PAM, so
    levels pair up with equal statistics and I(X;Y) is twice the axis total.
    BPSK is the one-axis case: its imaginary noise carries no information.
    The arrays are cached and shared between calls, hence read-only.
    """
    key = (c.name, min(float(snr_db), SNR_CLIP_DB))  # one entry above the clip
    if key in _stats_cache:
        return _stats_cache[key]
    sigma = noise_sigma(snr_db)
    cap, disp, total = _pam_stats(c.axis_amp_by_label(), sigma, *_gauss_hermite())
    if c.m > 1:  # square QAM: two identical axes, levels interleaved
        cap, disp, total = np.repeat(cap, 2), np.repeat(disp, 2), 2.0 * total
    # quadrature roundoff can leave tiny negatives on saturated levels
    disp = np.maximum(disp, 0.0)
    cap.flags.writeable = False
    disp.flags.writeable = False
    out = (cap, disp, total)
    if len(_stats_cache) >= 8192:  # online constructions probe arbitrary SNRs
        _stats_cache.clear()
    _stats_cache[key] = out
    return out


def channel_capacity(c: Constellation, snr_db: float) -> float:
    """Coded-modulation capacity I(X;Y) in bits per symbol, uniform inputs."""
    return level_stats(c, snr_db)[2]


def subchannel_capacity(c: Constellation, k: int, snr_db: float) -> float:
    """I(W_k) of bit level k (1-based) in bits."""
    if not 1 <= k <= c.m:
        raise ValueError(f"level k={k} outside 1..{c.m}")
    return float(level_stats(c, snr_db)[0][k - 1])


def subchannel_dispersion(c: Constellation, k: int, snr_db: float) -> float:
    """V(W_k) of bit level k (1-based) in bits^2."""
    if not 1 <= k <= c.m:
        raise ValueError(f"level k={k} outside 1..{c.m}")
    return float(level_stats(c, snr_db)[1][k - 1])


def biawgn_capacity(sigma: float) -> float:
    """Capacity of binary-input +-1 real AWGN with noise std sigma, in bits."""
    t, w = _gauss_hermite()
    y = 1.0 + np.sqrt(2.0) * sigma * t
    # log2(1 + exp(-2y/sigma^2)) evaluated stably
    loss = np.logaddexp(0.0, -2.0 * y / sigma**2) / LN2
    return 1.0 - float(np.sum(w * loss)) / np.sqrt(np.pi)


def biawgn_sigma_for_capacity(cap: float) -> float:
    """Noise std of the binary-input AWGN surrogate with the given capacity."""
    if not 0.0 < cap < 1.0:
        raise ValueError("surrogate capacity must lie in (0, 1)")
    lo, hi = 1e-3, 1e3  # capacity ~1 at lo, ~0 at hi
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if biawgn_capacity(mid) > cap:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-14:
            break
    return np.sqrt(lo * hi)
