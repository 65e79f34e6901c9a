"""Information-set construction for multilevel polar-coded modulation.

Two offline constructions share the same progressive rate-filling core:

* finite-blocklength rate-filling (RF-II): find the SNR where the clamped sum
  of per-level normal-approximation rates M_k = I_k - sqrt(V_k/N) Qinv(eps)
  equals the target sum-rate R_T = K/N, then fill per-level information-bit
  counts proportionally to max(0, M_k) at that SNR. The penalty uses the
  frame error target at every level; ``per_level_error_prob`` remains
  available for budgeting a frame target across levels;
* capacity rate-filling (RF-I): the same at eps = 0.5. Qinv(0.5) = 0, so
  M_k = I_k bitwise, the SNR is where the coded-modulation capacity equals
  R_T and the fill is proportional to the per-level capacities; RF-I is built
  as RF-II at eps = 0.5.

Both depend only on (m, K, N, eps) and a channel-independent rank sequence,
never on a channel realization. Within each level the information set is the
top-K_k slice of the rank sequence, so constructions nest as rates shrink and
the only ordering operation over reliabilities is one sort of m level values
(``_order_levels``). A construction's per-level sets are its only per-level
record: K_k = |A_k|, K, m, the CRC lengths and its codes derive from them.

The online baseline is a Gaussian-approximation construction: each bit level
is replaced by a binary-input AWGN surrogate of equal capacity, mean LLRs are
propagated through the polar transform with the standard two-segment phi
approximation, and the K globally most reliable of the m*N polarized indices
become information positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources
from math import copysign

import numpy as np

from .constellation import Constellation, build_constellation
from .mp_analysis import biawgn_sigma_for_capacity, finite_bl_rate, level_stats
from .polar_codec import ComponentCode, crc_len_for_k

SNR_BRACKET_DB = (-40.0, 50.0)
RATE_MARGIN = 1e-6
DEFAULT_EPS = 0.1

GA_PHI_A = -0.4527
GA_PHI_B = 0.86
GA_PHI_C = 0.0218
GA_PHI_SPLIT = 10.0


@dataclass(frozen=True, eq=False)
class RankSequence:
    """Channel-independent reliability order, ascending (worst index first),
    of [0, max_len): ``max_len``, the largest N it ranks, is ``order.size``."""

    name: str  # "FiveG_Polar" or "PW"
    order: np.ndarray

    def __post_init__(self):
        order = np.asarray(self.order)
        if order.size and order.dtype.kind not in "iu":  # a cast would truncate
            raise ValueError(f"rank sequence must hold integers, got {order.dtype}")
        if not np.array_equal(np.sort(order), np.arange(order.size)):
            raise ValueError(f"rank sequence is not a permutation of [0, {order.size})")
        object.__setattr__(self, "order", order.astype(np.int64, copy=False))

    @property
    def max_len(self) -> int:
        return self.order.size

    def restrict(self, n: int) -> np.ndarray:
        """Nested extraction: entries < n in original order."""
        if n < 1 or n & (n - 1):
            raise ValueError(f"N={n} is not a power of two")
        if n > self.max_len:
            raise ValueError(f"N={n} exceeds sequence coverage {self.max_len}")
        return self.order[self.order < n]

    def top_k(self, n: int, k: int) -> np.ndarray:
        """The k most reliable indices among [0, n), sorted ascending."""
        if not 0 <= k <= n:
            raise ValueError(f"k={k} outside [0, {n}]")
        return np.sort(self.restrict(n)[n - k:])


def load_rank_sequence(path) -> RankSequence:
    """Load a whitespace-separated reliability order and validate it."""
    order = np.loadtxt(path, dtype=np.int64).ravel()
    return RankSequence("FiveG_Polar", order)


@lru_cache(maxsize=1)
def five_g_sequence() -> RankSequence:
    """The packaged 1024-entry 5G polar reliability sequence."""
    ref = resources.files("mlcpcm").joinpath("data/polar_sequence_5g.txt")
    with resources.as_file(ref) as path:
        return load_rank_sequence(path)


def pw_sequence(n: int) -> RankSequence:
    """Polarization-weight (beta-expansion) order: w(i) = sum_j b_j 2^{j/4}."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"N={n} is not a power of two")
    bits = (np.arange(n)[:, None] >> np.arange(max(n.bit_length() - 1, 1))) & 1
    w = bits @ (2.0 ** (np.arange(bits.shape[1]) / 4.0))
    order = np.argsort(w, kind="stable")  # ties resolved to smaller index
    return RankSequence("PW", order)


def default_sequence(n: int) -> RankSequence:
    """FiveG_Polar for N <= 1024, PW beyond its coverage."""
    return five_g_sequence() if n <= 1024 else pw_sequence(n)


@dataclass(frozen=True, eq=False)
class CodeConstruction:
    """Per-level information sets, the only per-level record, plus the metadata
    that produced them. m, K, the CRC lengths and ``codes``, one validated
    ``ComponentCode`` per level, derive from the sets when it is built or
    replaced."""

    n: int
    method: str  # "rf1" | "rf2" | "ga"
    info_sets: tuple[np.ndarray, ...]  # sorted ascending, 0-based
    design_snr_db: float | None
    eps: float | None = None
    codes: tuple[ComponentCode, ...] = field(init=False)
    m: int = field(init=False)
    k_total: int = field(init=False)
    crc_lens: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        codes = tuple(ComponentCode(n=self.n, info_set=s, crc_len=crc_len_for_k(len(s)))
                      for s in self.info_sets)
        derived = dict(codes=codes, info_sets=tuple(c.info_set for c in codes),
                       m=len(codes), k_total=sum(c.k for c in codes),
                       crc_lens=tuple(c.crc_len for c in codes))
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def _order_levels(values: np.ndarray) -> list[int]:
    """Descending-value level order, ties to the smaller level index."""
    return sorted(range(len(values)), key=lambda k: (-values[k], k))


def rate_fill(values: np.ndarray, k_total: int, n: int) -> np.ndarray:
    """Per-level counts (int64) of a progressive proportional fill of K over
    m finite, nonnegative values, at least one positive, ceil per step.

    Levels are processed in descending value order; level k_t receives
    ceil(remaining * v_{k_t} / sum of values from t on), capped at N. The cap
    (and any zero-value tail) spills the leftover to later levels in
    processing order, keeping the sum exactly K.
    """
    v = np.asarray(values, dtype=np.float64)
    m = v.size
    if not (np.all((v >= 0) & (v < np.inf)) and np.any(v > 0)):  # NaN fails too
        raise ValueError("values must be nonnegative with at least one positive")
    if not 0 <= k_total <= m * n:
        raise ValueError(f"K={k_total} outside [0, {m * n}]")
    order = _order_levels(v)
    suffix = np.cumsum(v[order][::-1])[::-1]  # suffix[t] = sum of v from step t
    counts = np.zeros(m, dtype=np.int64)
    remaining = int(k_total)
    for t, k in enumerate(order):
        if suffix[t] > 0.0:
            share = int(np.ceil(remaining * v[k] / suffix[t]))
        else:
            share = 0
        share = min(share, n, remaining)
        counts[k] = share
        remaining -= share
    if remaining:  # cap overflow or an all-zero tail: spill in order
        for k in order:
            add = min(n - counts[k], remaining)
            counts[k] += add
            remaining -= add
            if not remaining:
                break
    return counts


def _brentq(f, a: float, b: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """Root of f on [a, b] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of the C loop behind ``scipy.optimize.brentq``, so
    for the same f, bracket and tolerances it evaluates f at the same points
    and returns the same float bit for bit. Raises ValueError when f(a) and
    f(b) have the same sign, RuntimeError after maxiter steps.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if copysign(1.0, fpre) == copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and copysign(1.0, fpre) != copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best estimate in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError(f"Brent's method did not converge in {maxiter} steps")


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:  # NaN fails too
        raise ValueError("eps must lie in (0, 1)")


def solve_snr_finite(c: Constellation, target_sum_rate: float, n: int,
                     eps: float) -> float:
    """SNR (dB) where the clamped finite-blocklength sum-rate equals the
    target, by Brent's method on SNR_BRACKET_DB; ValueError for a target
    outside [RATE_MARGIN, m - RATE_MARGIN] or not bracketed there."""
    if not RATE_MARGIN <= target_sum_rate <= c.m - RATE_MARGIN:
        raise ValueError(f"target sum-rate {target_sum_rate} outside "
                         f"({RATE_MARGIN}, {c.m - RATE_MARGIN})")
    _check_eps(eps)

    def excess(snr_db: float) -> float:
        return float(np.sum(finite_bl_values(c, snr_db, n, eps))) - target_sum_rate

    lo, hi = SNR_BRACKET_DB
    if excess(lo) > 0.0 or excess(hi) < 0.0:
        raise ValueError(f"target sum-rate {target_sum_rate} not bracketed on "
                         f"[{lo}, {hi}] dB")
    return _brentq(excess, lo, hi, xtol=1e-12, rtol=8.9e-16)


def solve_snr_capacity(c: Constellation, target_sum_rate: float) -> float:
    """SNR (dB) where the coded-modulation capacity equals the target: the
    finite-blocklength solve at n = 1, eps = 0.5, whose penalty is zero."""
    return solve_snr_finite(c, target_sum_rate, 1, 0.5)


def finite_bl_values(c: Constellation, snr_db: float, n: int,
                     eps: float) -> np.ndarray:
    """Per-level max(0, I_k - sqrt(V_k/n) Qinv(eps)) at the given SNR; at
    eps = 0.5 the penalty is a signed zero and the values are the capacities."""
    if not n >= 1:  # NaN fails too
        raise ValueError(f"n must be >= 1, got {n}")
    cap, disp, _ = level_stats(c, snr_db)
    return np.maximum(finite_bl_rate(cap, disp, n, eps), 0.0)


def construct_rf2(m: int, k_total: int, n: int, eps: float = DEFAULT_EPS,
                  seq: RankSequence | None = None) -> CodeConstruction:
    """Finite-blocklength rate-filling construction: K rate-filled over the
    per-level values at the SNR where their sum reaches K/N, or at K = mN,
    a sum no SNR reaches, over unit values (design SNR None), which fill the
    levels to N in level order; each level's set is ``seq.top_k``."""
    _check_eps(eps)
    c = build_constellation(m)
    seq = default_sequence(n) if seq is None else seq
    if k_total == m * n:
        snr, v = None, np.ones(m)
    else:
        snr = solve_snr_finite(c, k_total / n, n, eps)
        v = finite_bl_values(c, snr, n, eps)
    sets = tuple(seq.top_k(n, int(k)) for k in rate_fill(v, k_total, n))
    return CodeConstruction(n=n, method="rf2", info_sets=sets, design_snr_db=snr,
                            eps=eps)


def construct_rf1(m: int, k_total: int, n: int,
                  seq: RankSequence | None = None) -> CodeConstruction:
    """Capacity-proportional rate-filling construction: RF-II at eps = 0.5."""
    return replace(construct_rf2(m, k_total, n, 0.5, seq), method="rf1", eps=None)


def ln_phi(x: np.ndarray) -> np.ndarray:
    """ln of the GA phi function, two-segment form, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    small = x < GA_PHI_SPLIT
    # placeholder inputs keep each segment finite where the other applies
    xs = np.where(small, x, 1.0)
    xl = np.where(small, GA_PHI_SPLIT, x)
    return np.where(small, GA_PHI_A * xs**GA_PHI_B + GA_PHI_C,
                    -xl / 4.0 + 0.5 * (np.log(np.pi) - np.log(xl))
                    + np.log1p(-10.0 / (7.0 * xl)))


def _phi_inv_ln(target: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Solve ln_phi(x) = target for x in [0, hi], elementwise bisection.

    At most 80 steps. A step that moves no bracket end is a fixed point: the
    next midpoint and verdict repeat it, so stopping there returns what the
    remaining steps would.
    """
    lo = np.zeros_like(hi)
    hi = hi.copy()
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        too_small = ln_phi(mid) > target  # phi decreasing: mid below the root
        new_lo = np.where(too_small, mid, lo)
        new_hi = np.where(too_small, hi, mid)
        if (new_lo == lo).all() and (new_hi == hi).all():
            break
        lo, hi = new_lo, new_hi
    return 0.5 * (lo + hi)


def ga_check_update(z: np.ndarray) -> np.ndarray:
    """Check-branch GA mean: phi_inv(1 - (1 - phi(z))^2), log-domain inside."""
    z = np.asarray(z, dtype=np.float64)
    lp = ln_phi(z)
    # 1-(1-p)^2 = 2p(1 - p/2); the fitted phi can slightly exceed 1 near 0,
    # the product form keeps the update finite there
    lt = np.log(2.0) + lp + np.log1p(-0.5 * np.exp(lp))
    return _phi_inv_ln(lt, z.copy())


def ga_evolve(design_llr_mean: float | np.ndarray, n: int) -> np.ndarray:
    """Mean LLR of each polarized index under the Gaussian approximation.

    design_llr_mean is a scalar or an array of design means; the result has
    shape design_llr_mean.shape + (n,), one independent evolution per mean.
    """
    z = np.asarray(design_llr_mean, dtype=np.float64)[..., None]
    if np.any(z <= 0):
        raise ValueError("design LLR mean must be positive")
    if n < 1 or n & (n - 1):
        raise ValueError(f"N={n} is not a power of two")
    while z.shape[-1] < n:
        new = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
        new[..., 0::2] = ga_check_update(z)
        new[..., 1::2] = 2.0 * z
        z = new
    return z


def construct_ga(c: Constellation, k_total: int, n: int,
                 actual_snr_db: float) -> CodeConstruction:
    """Gaussian-approximation construction on per-level BI-AWGN surrogates."""
    if not 0 <= k_total <= c.m * n:
        raise ValueError(f"K={k_total} outside [0, {c.m * n}]")
    cap = np.clip(level_stats(c, actual_snr_db)[0], 1e-12, 1.0 - 1e-12)
    # square QAM levels pair up with equal capacities: bisect and evolve each value once
    distinct, inverse = np.unique(cap, return_inverse=True)
    sigma = np.array([biawgn_sigma_for_capacity(float(ck)) for ck in distinct])
    rel = ga_evolve(2.0 / sigma**2, n)[inverse]
    lvl, idx = np.divmod(np.arange(c.m * n), n)
    # global top-K by mean LLR, ties to smaller level then smaller index
    ranked = np.lexsort((idx, lvl, -rel.ravel()))[:k_total]
    sets = tuple(np.sort(idx[ranked[lvl[ranked] == k]]) for k in range(c.m))
    return CodeConstruction(n=n, method="ga", info_sets=sets,
                            design_snr_db=float(actual_snr_db))
