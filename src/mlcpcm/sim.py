"""Monte Carlo link simulation: AWGN BLER curves, required-SNR search, and
adaptive-MCS throughput over block fading.

Reproducibility contract: every frame draws from its own counter-based
substream keyed by (seed, snr_index, frame_index), frames are consumed in
index order, and early stopping truncates at the exact frame where the error
budget is met. Results are therefore bit-identical for a given (config, seed)
regardless of batch size or worker count, on one numpy build at one SIMD
dispatch level: numpy picks its exp, log, log1p and tanh kernels at run
time, and the decoder's check-node rule and the GA construction call them,
so another build or CPU may move their last bits. Per-frame draw order is
fixed: fading coefficient (throughput only), then payload bits level by
level, then noise (real parts, then imaginary parts).
"""

from __future__ import annotations

import csv
import functools
import numbers
import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from contextlib import closing, contextmanager
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from typing import TYPE_CHECKING

import numpy as np

from .constellation import Constellation, build_constellation
from .construction import (DEFAULT_EPS, CodeConstruction, RankSequence,
                           construct_ga, construct_rf1, construct_rf2,
                           solve_snr_capacity)
from .mlc_system import mlc_encode_batch, multistage_decode_batch
from .mp_analysis import noise_n0, noise_sigma
from .polar_codec import check_integer, check_power_of_two

if TYPE_CHECKING:  # _pool imports the pool machinery when it makes a pool
    from concurrent.futures import Future, ProcessPoolExecutor

_FADE_FLOOR = 1e-30  # |h|^2 floor: a null fade keeps a finite SNR and N0/|h|^2
METHODS = ("rf1", "rf2", "ga")
_BATCH_BYTES = 1 << 25  # chunk budget in full demap tree bytes (_batch_size)
_MAX_ROWS = 512  # LLR rows per decoder call


def k_for_rate(m: int, n: int, rate: float) -> int:
    """Information bits (CRC included) at per-level rate: m n rate, half up."""
    return int(np.floor(m * n * rate + 0.5))


@dataclass(frozen=True)
class McsEntry:
    """One modulation-and-coding-scheme row: 2^m-QAM at rate/1024."""

    index: int
    m: int
    rate_x1024: float

    def __post_init__(self):
        if check_integer("m", self.m) not in (2, 4, 6, 8):
            raise ValueError(f"MCS {self.index}: modulation order {self.m} out of range")
        if not 0.0 < self.rate_x1024 < 1024.0:
            raise ValueError(f"MCS {self.index}: rate {self.rate_x1024}/1024 out of range")

    @property
    def rate(self) -> float:
        return self.rate_x1024 / 1024.0

    @property
    def spectral_efficiency(self) -> float:
        return self.m * self.rate

    def k_for(self, n: int) -> int:
        """Information bits (CRC included) for block length n."""
        return k_for_rate(self.m, n, self.rate)


def load_mcs_table(path=None) -> tuple[McsEntry, ...]:
    """Load the MCS table CSV (index, q_m, rate_x1024); packaged table by default."""
    if path is None:
        ref = resources.files("mlcpcm").joinpath("data/mcs_table_38214_t2.csv")
        with resources.as_file(ref) as p:
            return load_mcs_table(p)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    entries = tuple(McsEntry(index=int(r["index"]), m=int(r["q_m"]),
                             rate_x1024=float(r["rate_x1024"])) for r in rows)
    if [e.index for e in entries] != list(range(len(entries))):
        raise ValueError("MCS indices must be 0..len-1 in order")
    return entries


@dataclass(frozen=True)
class SimConfig:
    """One link simulation. Fields:

    method       "rf1", "rf2" or "ga" (ga is rebuilt at every SNR point)
    m, n, k      bits per symbol (1 or even), component block length N (a
                 power of two) and total information bits K in [0, mN]
                 (CRC included)
    snr_grid_db  strictly increasing, finite real (not bool) Es/N0 points in dB
                 (mean SNRs for fading), above about -2782 dB, where N0 overflows
                 at a null fade; those above mp_analysis.SNR_CLIP_DB simulate as it
    list_size    SCL list size, a power of two
    max_blocks   frames per SNR point, at most 2^32 (frame_rng's frame index)
    max_errors   frame errors that end a BLER point early
    seed         simulation seed in [0, 2^64)
    eps          the rf2 frame error target, and in run_throughput also the
                 predicted-BLER limit of the MCS choice

    run_throughput reads neither m and k (set per frame by the MCS table) nor
    max_errors (it simulates every frame) and leaves them out of its config
    echo. Integer fields must be numbers.Integral, bool excluded (TypeError
    otherwise), and are stored as int; out-of-range values raise ValueError.
    """

    method: str
    m: int
    n: int
    k: int
    snr_grid_db: tuple[float, ...]
    list_size: int = 8
    max_blocks: int = 100_000
    max_errors: int = 100
    seed: int = 0
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("m", "n", "k", "list_size", "max_blocks", "max_errors", "seed"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        if self.m != 1 and (self.m < 2 or self.m % 2):
            raise ValueError(f"m must be 1 or an even number >= 2, got {self.m}")
        check_power_of_two("n", self.n)
        if not 0 <= self.k <= self.m * self.n:
            raise ValueError(f"k must lie in [0, m n] = [0, {self.m * self.n}], "
                             f"got {self.k}")
        grid = tuple(self.snr_grid_db)  # a string's points are its characters
        if not all(isinstance(s, numbers.Real) and not isinstance(s, bool) for s in grid):
            raise ValueError("SNR grid must be a sequence of real numbers, got "
                             f"{self.snr_grid_db!r}")
        grid = tuple(float(s) for s in grid)
        for s in grid:
            if not np.isfinite(s):
                raise ValueError(f"SNR grid points must be finite, got {s}")
            try:  # a fading run reaches this SNR at a null fade
                noise_n0(s + 10.0 * np.log10(_FADE_FLOOR))
            except ValueError:
                raise ValueError(f"SNR grid point {s} dB is too low: N0 overflows "
                                 "there or at a null fade") from None
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("SNR grid must be non-empty and strictly increasing")
        object.__setattr__(self, "snr_grid_db", grid)
        if self.max_blocks < 1 or self.max_errors < 1:
            raise ValueError("block and error budgets must be at least 1")
        if self.max_blocks > 1 << 32:
            raise ValueError("max_blocks above 2^32 overflows the frame index")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must lie in [0, 2^64)")
        check_power_of_two("list size", self.list_size)
        if not 0.0 < self.eps < 1.0:  # NaN fails too
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")


@dataclass(frozen=True)
class SimPoint:
    snr_db: float
    value: float
    blocks: int
    errors: int


@dataclass
class SimCurve:
    metric: str  # "bler" or "throughput"
    points: list[SimPoint] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def rows(self) -> list[tuple]:
        return [(p.snr_db, p.value, p.blocks, p.errors) for p in self.points]

    def to_json_dict(self) -> dict:
        return {"metric": self.metric, "config": self.config,
                "wall_time_s": self.wall_time_s,
                "points": [asdict(p) for p in self.points]}


def frame_rng(seed: int, snr_idx: int, frame_idx: int) -> np.random.Generator:
    """Counter-based substream for one frame of one SNR point."""
    key = np.array([seed, (snr_idx << 32) | frame_idx], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def awgn_transmit(symbols: np.ndarray, snr_db: float,
                  rng: np.random.Generator) -> np.ndarray:
    """y = x + n with circularly symmetric noise of total variance
    N0 = noise_n0(snr_db)."""
    sigma = noise_sigma(snr_db)
    nr = rng.standard_normal(symbols.shape)
    ni = rng.standard_normal(symbols.shape)
    return symbols + sigma * (nr + 1j * ni)


def build_construction(method: str, c: Constellation, k: int, n: int,
                       eps: float, snr_db: float | None = None,
                       seq: RankSequence | None = None) -> CodeConstruction:
    """Dispatch on method tag; ga needs the operating SNR, rf1/rf2 rank by seq."""
    if method == "rf1":
        return construct_rf1(c.m, k, n, seq=seq)
    if method == "rf2":
        return construct_rf2(c.m, k, n, eps=eps, seq=seq)
    if method == "ga":
        if snr_db is None:
            raise ValueError("ga construction requires the operating SNR")
        return construct_ga(c, k, n, snr_db)
    raise ValueError(f"unknown method {method!r}")


def _batch_size(m: int, n: int, cap: int) -> int:
    """Frames per chunk: within the _BATCH_BYTES budget, at most ``cap``, and
    at most _MAX_ROWS rows per decoder call, where a level pair decodes as
    one call of two rows per frame."""
    # counts two axes of 2^(h+1) float64 entries per symbol (h = ceil(m/2)),
    # the full demap trees, though a batch holds no demap table: each level
    # forms its LLRs from its own axis subtree, 1 MiB of leaves at a time.
    # At large N this term is the only cap on frames per chunk, and with it
    # on decoder working memory
    per_frame = n * 2 * (1 << ((m + 1) // 2 + 1)) * 8
    rows = 1 if m == 1 else 2
    return int(np.clip(_BATCH_BYTES // max(per_frame, 1), 16,
                       min(_MAX_ROWS // rows, max(cap, 1))))


@functools.lru_cache(maxsize=16)
def _construction(method: str, m: int, k: int, n: int, eps: float,
                  snr_db: float | None) -> tuple[Constellation, CodeConstruction]:
    """The constellation and construction of a task, built once per process;
    ``snr_db`` is ga's operating SNR and None for rf1/rf2."""
    c = build_constellation(m)
    return c, build_construction(method, c, k, n, eps, snr_db)


def _frame_errors(cons: CodeConstruction, c: Constellation, list_size: int,
                  snr_db: Sequence[float], rngs: list[np.random.Generator],
                  gains: np.ndarray | None = None) -> np.ndarray:
    """Send one frame per substream through the link; per-frame error flags.

    Frame i runs at SNR ``snr_db[i]``, so one batch may mix SNR points. Each
    frame draws its payload bits level by level, then its noise. With
    ``gains`` (one complex coefficient per frame) the symbols are scaled by
    the fading and the receiver decodes y/g at noise variance N0/|g|^2.
    """
    lens = [code.payload_len for code in cons.codes]
    payloads = [np.empty((len(rngs), pk), dtype=np.uint8) for pk in lens]
    for i, rng in enumerate(rngs):
        for k, pk in enumerate(lens):
            payloads[k][i] = rng.integers(0, 2, pk, dtype=np.uint8)
    symbols, _ = mlc_encode_batch(payloads, cons, c)
    if gains is not None:
        symbols = gains[:, None] * symbols
    y = np.empty_like(symbols)
    for i, rng in enumerate(rngs):
        y[i] = awgn_transmit(symbols[i], snr_db[i], rng)
    del symbols  # released before decoding, which reads only y
    noise_var = np.array([noise_n0(s) for s in snr_db])[:, None]
    if gains is not None:
        y = y / gains[:, None]
        noise_var = noise_var / np.maximum(np.abs(gains) ** 2, _FADE_FLOOR)[:, None]
    dec, _, _, _ = multistage_decode_batch(y, noise_var, cons, c, list_size)
    err = np.zeros(len(rngs), dtype=bool)
    for k in range(cons.m):
        err |= np.any(dec[k] != payloads[k], axis=1)
    return err


def _bler_chunk(cfg: SimConfig, snr_db: float, snr_idx: int, start: int,
                count: int) -> np.ndarray:
    """Simulate frames [start, start+count) of one SNR point; per-frame error flags."""
    c, cons = _construction(cfg.method, cfg.m, cfg.k, cfg.n, cfg.eps,
                            snr_db if cfg.method == "ga" else None)
    rngs = [frame_rng(cfg.seed, snr_idx, start + i) for i in range(count)]
    return _frame_errors(cons, c, cfg.list_size, [snr_db] * count, rngs)


@contextmanager
def _pool(workers: int):
    """The process pool of one simulation call, None at one worker; the only
    place a pool is made, and the only place that imports
    ``concurrent.futures`` (and with it ``multiprocessing``), so a
    single-worker call never loads them. On exit it terminates the workers,
    because a task still running then (look-ahead the call did not ask for,
    or work cut short by an error) is never read. It then shuts the pool
    down, which cancels the queued tasks and waits for the workers to end,
    so no child process outlives the call; Python 3.14's
    terminate_workers() would not wait."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield pool
    finally:
        if pool is not None:
            for proc in (pool._processes or {}).values():
                proc.terminate()
            pool.shutdown(cancel_futures=True)


def _in_order(submit: Callable | None, fn: Callable,
              arg_tuples: Iterable[tuple], workers: int):
    """Yield fn(*args) for each tuple of arg_tuples, drawn lazily, in order:
    here without ``submit``, else at most workers + 1 in flight through it.
    Closing the generator cancels those not yet started."""
    if submit is None:
        yield from (fn(*args) for args in arg_tuples)
        return
    pending = deque()
    try:
        for args in arg_tuples:
            pending.append(submit(fn, *args))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for f in pending:
            f.cancel()


def _consume(flags: np.ndarray, blocks: int, errors: int,
             max_errors: int) -> tuple[int, int, bool]:
    """Fold a chunk's error flags into running counts with exact truncation."""
    cum = errors + np.cumsum(flags)
    hit = np.nonzero(cum >= max_errors)[0]
    if hit.size:
        stop = int(hit[0])
        return blocks + stop + 1, int(cum[stop]), True
    return blocks + flags.size, int(cum[-1]) if flags.size else errors, False


def _chunk_scheduler(cfg: SimConfig, pool: ProcessPoolExecutor | None,
                     workers: int) -> Callable[..., SimPoint]:
    """The chunk scheduler of one config on a call's pool (None at one
    worker): point(snr_idx, snr_db, ahead) is a BLER point, its chunks folded
    in order by ``_consume``. If it has fewer chunks than workers, the first
    chunks of the ``ahead`` points ((snr_idx, snr_db), nearest first) take
    the idle workers, to be reused if asked for and otherwise never read."""
    batch = _batch_size(cfg.m, cfg.n, cfg.max_blocks)
    early: dict[tuple, Future] = {}  # by (snr_db, snr_idx, start)

    def submit(fn: Callable, *args) -> Future:
        started = early.pop(args[1:4], None)
        return pool.submit(fn, *args) if started is None else started

    def point(snr_idx: int, snr_db: float,
              ahead: Sequence[tuple[int, float]] = ()) -> SimPoint:
        chunks = [(cfg, snr_db, snr_idx, start, min(batch, cfg.max_blocks - start))
                  for start in range(0, cfg.max_blocks, batch)]

        def tasks():
            yield from chunks
            # _in_order draws these before it waits on any own chunk
            for i, s in ahead[:max(workers - len(chunks), 0)]:
                early[s, i, 0] = submit(_bler_chunk, cfg, s, i, *chunks[0][3:])

        blocks = errors = 0
        flags = _in_order(pool and submit, _bler_chunk, tasks(), workers)
        with closing(flags):
            for f in flags:
                blocks, errors, done = _consume(f, blocks, errors, cfg.max_errors)
                if done:
                    break
        return SimPoint(snr_db=snr_db, value=errors / blocks, blocks=blocks,
                        errors=errors)

    return point


def _bler_curve(cfg: SimConfig, pool: ProcessPoolExecutor | None,
                workers: int) -> SimCurve:
    """``run_bler`` on the caller's pool."""
    if cfg.k < 1:
        raise ValueError("k must be positive for BLER simulation")
    t0 = time.perf_counter()
    point = _chunk_scheduler(cfg, pool, workers)
    grid = list(enumerate(cfg.snr_grid_db))
    points = [point(i, s, grid[i + 1:]) for i, s in grid]
    return SimCurve(metric="bler", points=points, config=asdict(cfg),
                    wall_time_s=time.perf_counter() - t0)


def run_bler(cfg: SimConfig, workers: int = 1) -> SimCurve:
    """BLER on the config's SNR grid; frame errors judged by payload equality."""
    with _pool(workers) as pool:
        return _bler_curve(cfg, pool, workers)


@dataclass(frozen=True)
class MinSnrResult:
    """``min_required_snr``'s result; ``config`` echoes the SimConfig of its
    probes without the grid, which no probe reads, and is left out of the
    hash, so a result stays hashable."""

    snr_db: float
    warned: bool
    probes: tuple[SimPoint, ...]
    config: dict = field(hash=False)


def _entry_setup(method: str, mcs: McsEntry, n: int,
                 settings: dict) -> tuple[SimConfig, float]:
    """An MCS entry's checked SimConfig at N (its m and K, the method and
    ``settings`` over the defaults, an unread placeholder grid), then its
    capacity-matched SNR, which K = 0 or mN lacks (ValueError)."""
    cfg = SimConfig(method=method, m=mcs.m, n=n, k=mcs.k_for(n), snr_grid_db=(0.0,),
                    **settings)
    return cfg, solve_snr_capacity(build_constellation(mcs.m), cfg.k / n)


def _log_bler(p: SimPoint) -> float:
    # continuity correction so zero-error points stay interpolable
    return float(np.log10(max(p.value, 0.5 / p.blocks)))


def min_required_snr(method: str, mcs: McsEntry, n: int, target_bler: float, *,
                     workers: int = 1, **settings) -> MinSnrResult:
    """SNR achieving the target BLER: 0.25 dB grid walk plus log interpolation.

    Every probe simulates the SimConfig of the method, N, the MCS entry's m
    and K, and the other fields as keyword ``settings`` or their defaults;
    the result's ``config`` echoes it without the grid. An entry with K = 0
    or mN at this N is refused (ValueError) before any probe.

    Probes start from the capacity-matched SNR of the scheme's sum-rate and
    walk the grid until the target is bracketed. From a probe far above the
    target the walk takes a 1 dB stride: one at 30 x the target or more, or
    one on the waterfall's flat top (BLER >= 0.9) and at 3 x the target or
    more, so that a target of 0.1 strides there too. A stride that lands
    below the target is backfilled, so the final bracket is always two
    adjacent grid points, the lower at or above the target and the upper
    below it. Where the probe BLERs fall with SNR, the strides change only
    which probes are walked, at most one of them past the bracket, and not
    the bracket or the result. When the bracket is flat, because the upper
    probe's continuity-corrected BLER (0.5 / blocks when it saw no errors)
    is not below the lower one's, the result is the bracket midpoint and
    ``warned`` is set.

    Each probe is a BLER point (SNR index 0) of ``run_bler``'s chunk
    scheduler, on one pool for the call; its look-ahead is the next workers
    - 1 grid points of the walk, in the backfill only those below the
    bracket. From the first probe it looks ahead 1 dB apart for targets up
    to 1/30 and 0.25 dB apart above. Look-ahead still running when the
    bracket is found is stopped, not waited for. A probe depends only on
    (config, SNR) and ``probes`` lists only the probes the walk asks for, so
    the result does not depend on workers.
    """
    if not 0.0 < target_bler < 1.0:  # NaN fails too
        raise ValueError(f"target_bler must lie in (0, 1), got {target_bler}")
    cfg, anchor = _entry_setup(method, mcs, n, settings)
    step = 0.25
    far = max(min(30 * target_bler, 0.9), 3 * target_bler)  # a BLER to stride from
    s = np.floor(anchor / step) * step
    cache: dict[float, SimPoint] = {}
    with _pool(workers) as pool:
        point = _chunk_scheduler(cfg, pool, workers)

        def probe(s: float, ahead: float, below: float = np.inf) -> SimPoint:
            # look ahead to s + j * ahead, 0 < j < workers, below ``below``
            s = round(s / step) * step
            if s not in cache:
                nxt = [round((s + j * ahead) / step) * step for j in range(1, workers)]
                cache[s] = point(0, s, [(0, t) for t in nxt
                                        if t not in cache and t < below])
            return cache[s]

        # look ahead up the grid: the capacity-matched anchor is usually
        # below the waterfall, at a BLER near 1
        p = probe(s, 1.0 if 30 * target_bler <= 1.0 else step)
        guard = 0
        while p.value < target_bler:  # walked in above the waterfall
            s -= step
            p = probe(s, -step)
            guard += 1
            if guard > 240:
                raise RuntimeError("target BLER not bracketed within 60 dB")
        lo = p
        while True:
            stride = 1.0 if lo.value >= far else step
            p = probe(lo.snr_db + stride, stride)
            guard += 1
            if guard > 240:
                raise RuntimeError("target BLER not bracketed within 60 dB")
            if p.value < target_bler:
                hi = p  # backfill so the bracket is adjacent on the grid
                while hi.snr_db - lo.snr_db > step * 1.01:
                    q = probe(lo.snr_db + step, step, hi.snr_db)
                    if q.value < target_bler:
                        hi = q
                    else:
                        lo = q
                break
            lo = p

    llo, lhi, lt = _log_bler(lo), _log_bler(hi), np.log10(target_bler)
    warned = lhi >= llo
    if warned:  # flat bracket: fall back to the midpoint
        snr = 0.5 * (lo.snr_db + hi.snr_db)
    else:
        snr = lo.snr_db + (hi.snr_db - lo.snr_db) * (llo - lt) / (llo - lhi)
    probes = tuple(sorted(cache.values(), key=lambda p: p.snr_db))
    return MinSnrResult(snr_db=float(snr), warned=warned, probes=probes,
                        config={key: value for key, value in asdict(cfg).items()
                                if key != "snr_grid_db"})


def predict_bler(curve: SimCurve, snr_db: float) -> float:
    """Interpolate a measured BLER curve at snr_db (log-domain, clamped ends)."""
    s = np.array([p.snr_db for p in curve.points])
    lb = np.array([_log_bler(p) for p in curve.points])
    return float(10.0 ** np.interp(snr_db, s, lb))


def build_bler_lut(method: str, mcs_table: tuple[McsEntry, ...], n: int,
                   span_db: float = 6.0, step_db: float = 1.0, *,
                   workers: int = 1, **settings) -> dict[int, SimCurve]:
    """Per-MCS BLER curves on a grid around each capacity-matched SNR, from
    step_db below it to span_db above it. Each entry simulates the SimConfig
    of the method, N, its m, K and grid, and the other fields as keyword
    ``settings`` or their defaults. Every entry's config and SNR are built
    and checked before the first frame is simulated, so an entry with K = 0
    or mN at this N is refused (ValueError) first."""
    if not (np.isfinite(span_db) and np.isfinite(step_db) and step_db > 0.0):
        raise ValueError(f"span_db and step_db must be finite and step_db "
                         f"positive, got {span_db} and {step_db}")

    def config(mcs: McsEntry) -> SimConfig:
        cfg, anchor = _entry_setup(method, mcs, n, settings)
        anchor = round(anchor / step_db) * step_db
        grid = tuple(anchor + d for d in np.arange(-step_db, span_db + step_db / 2,
                                                   step_db))
        return replace(cfg, snr_grid_db=grid)

    with _pool(workers) as pool:
        configs = [config(mcs) for mcs in mcs_table]
        return {mcs.index: _bler_curve(cfg, pool, workers)
                for mcs, cfg in zip(mcs_table, configs)}


def _select_mcs(mcs_table: tuple[McsEntry, ...], lut: dict[int, SimCurve],
                inst_snr_db: float, bler_limit: float) -> McsEntry:
    """Highest-goodput entry with predicted BLER within the limit."""
    best, best_goodput = None, -1.0
    for mcs in mcs_table:
        b = predict_bler(lut[mcs.index], inst_snr_db)
        if b <= bler_limit:
            goodput = mcs.spectral_efficiency * (1.0 - b)
            if goodput > best_goodput:
                best, best_goodput = mcs, goodput
    if best is None:
        best = min(mcs_table, key=lambda e: e.index)  # documented fallback
    return best


def _fading_batches(cfg: SimConfig, mcs_table: tuple[McsEntry, ...],
                    bler_lut: dict[int, SimCurve]):
    """Arguments of ``_fading_batch``: every frame of a throughput run, in
    batches of frames that share a construction (one frame each for GA).

    Frames are walked in (snr_idx, frame) order. Each draws its fading
    coefficient, gets the MCS chosen for its instantaneous SNR and joins that
    entry's pending batch, which goes out once it holds ``_batch_size``
    frames; the partial batches, at most one per entry whatever
    ``max_blocks``, go out at the end.
    """
    if not mcs_table:
        raise ValueError("the MCS table is empty")
    for mcs in mcs_table:
        if not (mcs.index in bler_lut and bler_lut[mcs.index].points):
            raise ValueError(f"MCS {mcs.index}: the BLER table has no curve for it")
    total = cfg.max_blocks * len(cfg.snr_grid_db)
    limit = {mcs: 1 if cfg.method == "ga" else _batch_size(mcs.m, cfg.n, total)
             for mcs in mcs_table}
    pending: dict[McsEntry, list] = {}
    for snr_idx, mean_snr in enumerate(cfg.snr_grid_db):
        for frame in range(cfg.max_blocks):
            rng = frame_rng(cfg.seed, snr_idx, frame)
            hr, hi = rng.standard_normal(2)
            h = complex(hr, hi) / np.sqrt(2.0)
            inst = mean_snr + 10.0 * np.log10(max(abs(h) ** 2, _FADE_FLOOR))
            mcs = _select_mcs(mcs_table, bler_lut, inst, cfg.eps)
            batch = pending.setdefault(mcs, [])
            batch.append((snr_idx, rng, h, inst))
            if len(batch) == limit[mcs]:
                del pending[mcs]
                yield cfg, mcs, batch
    for mcs, batch in pending.items():
        yield cfg, mcs, batch


def _fading_batch(cfg: SimConfig, mcs: McsEntry,
                  frames: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Decode one batch of fading frames that picked ``mcs``; per mean-SNR
    point (delivered bits, frame errors).

    ``frames`` holds (snr_idx, rng, h, instantaneous SNR) per frame, each rng
    past its fading draw; a GA batch is one frame, constructed at its SNR.
    """
    c, cons = _construction(cfg.method, mcs.m, mcs.k_for(cfg.n), cfg.n, cfg.eps,
                            frames[0][3] if cfg.method == "ga" else None)
    point = np.array([f[0] for f in frames])
    gains = np.array([f[2] for f in frames], dtype=np.complex128)
    err = _frame_errors(cons, c, cfg.list_size,
                        [cfg.snr_grid_db[i] for i in point],
                        [f[1] for f in frames], gains)
    points = len(cfg.snr_grid_db)
    return (np.bincount(point[~err], minlength=points) * cons.k_total,
            np.bincount(point[err], minlength=points))


def run_throughput(cfg: SimConfig, mcs_table: tuple[McsEntry, ...],
                   bler_lut: dict[int, SimCurve], workers: int = 1) -> SimCurve:
    """Adaptive-MCS link throughput over per-frame Rayleigh block fading.

    Per frame, a CN(0,1) coefficient h scales the symbols; the receiver knows
    h (decodes y/h at noise variance N0/|h|^2) and the transmitter knows the
    instantaneous SNR, picking the MCS that maximizes m R (1 - predicted BLER)
    subject to predicted BLER <= cfg.eps. Delivered bits count K per correct
    frame; throughput is delivered bits per symbol. The grid is mean SNR;
    cfg.m, cfg.k and cfg.max_errors are not read (see SimConfig). Frames that
    picked the same rf1/rf2 construction decode as one batch across mean-SNR
    points (see ``_fading_batches``), on one pool of ``workers`` processes.
    An empty table, or an entry without a LUT curve of at least one point,
    is refused (ValueError) before the first frame.
    """
    t0 = time.perf_counter()
    delivered = np.zeros(len(cfg.snr_grid_db), dtype=np.int64)
    errors = np.zeros_like(delivered)
    with _pool(workers) as pool:
        batches = _fading_batches(cfg, mcs_table, bler_lut)
        for d, e in _in_order(pool and pool.submit, _fading_batch, batches, workers):
            delivered += d
            errors += e
    points = [SimPoint(snr_db=mean_snr, value=int(d) / (cfg.max_blocks * cfg.n),
                       blocks=cfg.max_blocks, errors=int(e))
              for mean_snr, d, e in zip(cfg.snr_grid_db, delivered, errors)]
    config = {key: value for key, value in asdict(cfg).items()
              if key not in ("m", "k", "max_errors")}
    return SimCurve(metric="throughput", points=points, config=config,
                    wall_time_s=time.perf_counter() - t0)
