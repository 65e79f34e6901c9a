"""Per-layer spans for mlcpcm, recorded from outside the library.

A wrapper replaces a module-level name in the namespace where its caller
looks it up: ``mlcpcm.sim`` reads ``multistage_decode_batch`` from its own
globals, so that wrapper goes on ``mlcpcm.sim`` and not on
``mlcpcm.mlc_system``. A wrapper records one span (name, parent span, start,
end) per call, derives work counts from the call's arguments and result, and
returns the result untouched; library code and simulated values do not
change. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from importlib import import_module

# (namespace the caller reads the name from, span name). A span is named
# <layer>.<function>, the layer being the module that defines the function,
# so a function wrapped in two namespaces keeps one name.
TRACED = (
    ("mlcpcm.sim", "sim.run_bler"),
    ("mlcpcm.sim", "sim.min_required_snr"),
    ("mlcpcm.sim", "sim.run_throughput"),
    ("mlcpcm.sim", "sim.frame_rng"),
    ("mlcpcm.sim", "sim.awgn_transmit"),
    ("mlcpcm.sim", "sim.predict_bler"),
    ("mlcpcm.sim", "mlc_system.mlc_encode_batch"),
    ("mlcpcm.sim", "mlc_system.multistage_decode_batch"),
    ("mlcpcm.sim", "construction.construct_rf2"),
    ("mlcpcm.sim", "construction.construct_ga"),
    ("mlcpcm.construction", "construction.construct_rf2"),
    ("mlcpcm.construction", "construction.ga_evolve"),
    ("mlcpcm.construction", "mp_analysis.level_stats"),
    ("mlcpcm.construction", "mp_analysis.biawgn_sigma_for_capacity"),
    ("mlcpcm.mlc_system", "polar_codec.scl_decode_batch"),
    ("mlcpcm.mlc_system", "polar_codec.crc_attach"),
    ("mlcpcm.mlc_system", "polar_codec.polar_encode"),
    ("mlcpcm.mlc_system", "constellation.demap_tables"),
    ("mlcpcm.mlc_system", "constellation.level_llr_from_tables"),
)

# The simulation entry points; their self time is the simulation loop itself
# (payload draws, batching, early stopping, MCS choice, pool handling).
ENTRY_POINTS = ("sim.run_bler", "sim.min_required_snr", "sim.run_throughput")


def _count_scl(counts, args, result):
    llrs, code = args[0], args[1]
    frames = len(llrs)
    counts["scl_frames"] += frames
    counts["scl_info_bits"] += frames * code.k
    if code.crc_len:
        counts["crc_frames"] += frames
        counts["crc_fails"] += frames - int(result[2].sum())


def _count_demap(counts, args, result):
    counts["demap_symbols"] += args[1].size


def _count_msd(counts, args, result):
    counts["msd_frames"] += len(args[0])


def _count_level_stats(counts, args, result):
    counts["level_stats_args"].add((args[0].name, float(args[1])))


_COUNTERS = {
    "polar_codec.scl_decode_batch": _count_scl,
    "constellation.demap_tables": _count_demap,
    "mlc_system.multistage_decode_batch": _count_msd,
    "mp_analysis.level_stats": _count_level_stats,
}


class Tracer:
    """Spans and work counts of one benchmark process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.absent: list[str] = []
        self.names: list[str] = []
        self._stack: list[int] = []
        self._counts = defaultdict(int, level_stats_args=set())

    def install(self) -> None:
        """Wrap every TRACED name; names that no longer exist are absent."""
        for namespace, span in TRACED:
            if span not in self.names:
                self.names.append(span)
            module = import_module(namespace)
            name = span.partition(".")[2]
            fn = getattr(module, name, None)
            if callable(fn):
                setattr(module, name, self._wrap(fn, span))
            else:
                self.absent.append(f"{namespace}.{name}")

    def _wrap(self, fn, span_name: str):
        counter = _COUNTERS.get(span_name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [span_name, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if counter:
                counter(self._counts, signature.bind(*args, **kwargs).args,
                        result)
            return result

        return wrapper

    def metrics(self, names, frames_counted: int) -> dict[str, float]:
        """The per-layer metrics ``names``.

        A name is ``<span>.busy_s`` (total span time), ``<span>.self_s``
        (span time minus traced child spans) or ``<span>.calls`` of a traced
        span, or one of the work counts and useful-work ratios below.
        ``frames_counted`` is the number of frames whose outcome entered the
        result. A span that a workload never enters reads 0.
        """
        busy = dict.fromkeys(self.names, 0.0)
        own = dict.fromkeys(self.names, 0.0)
        calls = dict.fromkeys(self.names, 0)
        for name, parent, start, end in self.spans:
            busy[name] += end - start
            own[name] += end - start
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        own = {name: max(t, 0.0) for name, t in own.items()}

        c = self._counts
        scl = "polar_codec.scl_decode_batch"
        msd = "mlc_system.multistage_decode_batch"
        ls = "mp_analysis.level_stats"
        simulated = calls["sim.frame_rng"]
        derived = {
            f"{scl}.frames": c["scl_frames"],
            f"{scl}.us_per_info_bit": (1e6 * busy[scl] / c["scl_info_bits"]
                                       if c["scl_info_bits"] else 0.0),
            f"{scl}.crc_fail_share": (c["crc_fails"] / c["crc_frames"]
                                      if c["crc_frames"] else 0.0),
            "constellation.demap_tables.symbols": c["demap_symbols"],
            f"{msd}.frames_per_call": (c["msd_frames"] / calls[msd]
                                       if calls[msd] else 0.0),
            f"{ls}.distinct_share": (len(c["level_stats_args"]) / calls[ls]
                                     if calls[ls] else 0.0),
            "sim.frames_counted": frames_counted,
            "sim.useful_frame_share": (frames_counted / simulated
                                       if simulated else 0.0),
            "sim.self_s": sum(own[n] for n in ENTRY_POINTS),
            "trace.absent_wrappers": len(self.absent),
        }
        per_span = {"busy_s": busy, "self_s": own, "calls": calls}
        out: dict[str, float] = {}
        for name in names:
            span, _, kind = name.rpartition(".")
            if kind in per_span and span in busy:
                out[name] = per_span[kind][span]
            else:
                out[name] = derived[name]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "absent": self.absent,
                       "fields": ["name", "parent", "start", "end"],
                       "spans": self.spans}, fh)
