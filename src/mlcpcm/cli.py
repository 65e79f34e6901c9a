"""Command line front end: analysis tables, constructions, BLER and
throughput simulations. Configuration comes from flags or a JSON file whose
keys mirror SimConfig; flags override the file. Results print as text and can
be written to .csv or .json (JSON carries a config echo)."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict

import numpy as np

from .constellation import build_constellation
from .construction import (DEFAULT_EPS, construct_ga, construct_rf1,
                           construct_rf2, finite_bl_values, pw_sequence)
from .mp_analysis import level_stats
from .sim import (DEFAULT_MAX_BLOCKS, DEFAULT_MAX_ERRORS, SimConfig, SimCurve,
                  build_bler_lut, load_mcs_table, min_required_snr, run_bler,
                  run_throughput)


class _UsageError(Exception):
    """Bad command-line input, reported as a usage error of the subcommand."""


def _checked(fn, *args, **kwargs):
    """fn(*args, **kwargs), its ValueError on bad input as a usage error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_grid(args) -> tuple[float, ...]:
    if args.snr_db:
        return tuple(float(s) for s in args.snr_db)
    if args.snr_stop is None:
        raise _UsageError("--snr-stop required with --snr-start")
    step = 0.5 if args.snr_step is None else args.snr_step
    if not step > 0.0:
        raise _UsageError(f"--snr-step must be positive, got {step}")
    if args.snr_stop < args.snr_start:
        raise _UsageError("--snr-stop lies below --snr-start")
    return tuple(np.arange(args.snr_start, args.snr_stop + step / 2, step))


def _write(out: str, doc, header: list[str], rows) -> None:
    """Write ``doc`` as .json, or ``header`` and ``rows`` as .csv."""
    if out.endswith(".json"):
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2)
    elif out.endswith(".csv"):
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    else:
        raise SystemExit(f"unsupported output extension: {out}")
    print(f"wrote {out}")


def _write_curve(curve: SimCurve, out: str | None) -> None:
    if out is not None:
        _write(out, curve.to_json_dict(),
               ["snr_db", curve.metric, "blocks", "errors"], curve.rows())


def _print_curve(curve: SimCurve) -> None:
    print(f"# {curve.metric}  (wall time {curve.wall_time_s:.1f} s)")
    _print_rows(curve)


def _print_rows(curve: SimCurve) -> None:
    print(f"{'snr_db':>8}  {curve.metric:>12}  {'blocks':>8}  {'errors':>7}")
    for s, v, b, e in curve.rows():
        print(f"{s:8.2f}  {v:12.6g}  {b:8d}  {e:7d}")


def _cmd_analyze(args) -> None:
    if not args.snr_db and args.snr_start is None:
        raise _UsageError("analyze needs --snr-db or --snr-start/--snr-stop")
    c = _checked(build_constellation, args.m)
    rows = []
    for snr in _parse_grid(args):
        cap, disp, total = level_stats(c, snr)
        row = {"snr_db": snr, "capacity_total": total}
        for k in range(c.m):
            row[f"i_w{k + 1}"] = cap[k]
            row[f"v_w{k + 1}"] = disp[k]
        if args.n:
            mv = _checked(finite_bl_values, c, snr, args.n, args.eps)
            for k in range(c.m):
                row[f"m_w{k + 1}"] = mv[k]
        rows.append(row)
    cols = list(rows[0].keys())
    print("  ".join(f"{h:>14}" for h in cols))
    for row in rows:
        print("  ".join(f"{row[h]:14.8f}" for h in cols))
    if args.out:
        _write_rows(rows, cols, args.out)


def _write_rows(rows: list[dict], cols: list[str], out: str) -> None:
    _write(out, rows, cols, [[row[h] for h in cols] for row in rows])


def _cmd_construct(args) -> None:
    k = args.k if args.k is not None else int(np.floor(args.m * args.n * args.rate + 0.5))
    seq = _checked(pw_sequence, args.n) if args.seq == "pw" else None
    if args.method == "rf1":
        cc = _checked(construct_rf1, args.m, k, args.n, seq=seq)
    elif args.method == "rf2":
        eps = args.eps if args.eps is not None else DEFAULT_EPS
        cc = _checked(construct_rf2, args.m, k, args.n, eps=eps, seq=seq)
    else:
        if args.snr_db is None or len(args.snr_db) != 1:
            raise _UsageError("ga construction needs exactly one --snr-db")
        cc = _checked(construct_ga, _checked(build_constellation, args.m), k,
                      args.n, float(args.snr_db[0]))
    print(f"# method={cc.method} m={cc.m} n={cc.n} k={cc.k_total} "
          f"design_snr_db={cc.design_snr_db} eps={cc.eps}")
    rows = []
    for lvl in range(cc.m):
        rows.append({"level": lvl + 1, "k": int(cc.allocation.counts[lvl]),
                     "crc_len": cc.crc_lens[lvl],
                     "info_set": " ".join(map(str, cc.info_sets[lvl]))})
        print(f"level {lvl + 1}: K={rows[-1]['k']} crc={rows[-1]['crc_len']} "
              f"A={rows[-1]['info_set']}")
    if args.out:
        _write_rows(rows, ["level", "k", "crc_len", "info_set"], args.out)


def _load_config(args, need_mk: bool = True) -> SimConfig:
    raw = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
    grid = raw.get("snr_grid_db")
    if args.snr_db or args.snr_start is not None:
        grid = list(_parse_grid(args))
    if grid is None:
        raise SystemExit("an SNR grid is required (--snr-db / --snr-start or config)")
    merged = dict(
        method=args.method or raw.get("method", "rf2"),
        # throughput takes m and k from its MCS table: placeholders then
        m=args.m or raw.get("m", 0 if need_mk else 2),
        n=args.n or raw.get("n", 256),
        k=args.k if args.k is not None else raw.get("k", 0),
        snr_grid_db=tuple(grid),
        list_size=args.list_size or raw.get("list_size", 8),
        max_blocks=args.max_blocks or raw.get("max_blocks", DEFAULT_MAX_BLOCKS),
        max_errors=args.max_errors or raw.get("max_errors", DEFAULT_MAX_ERRORS),
        seed=args.seed if args.seed is not None else raw.get("seed", 0),
        eps=args.eps if args.eps is not None else raw.get("eps", DEFAULT_EPS),
    )
    if need_mk and merged["k"] == 0 and args.rate is not None:
        merged["k"] = int(np.floor(merged["m"] * merged["n"] * args.rate + 0.5))
    try:
        return SimConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from None


def _cmd_bler(args) -> None:
    cfg = _load_config(args)
    curve = run_bler(cfg, workers=args.workers)
    _print_curve(curve)
    _write_curve(curve, args.out)


def _cmd_throughput(args) -> None:
    cfg = _load_config(args, need_mk=False)
    table = load_mcs_table(args.mcs_table)
    if args.mcs:
        wanted = set(args.mcs)
        table = tuple(e for e in table if e.index in wanted)
        if not table:
            raise SystemExit("no MCS entries left after --mcs filter")
    lut = build_bler_lut(cfg.method, table, cfg.n, list_size=cfg.list_size,
                         seed=(cfg.seed + 1) % 2**64, eps=cfg.eps,
                         max_blocks=args.lut_blocks, max_errors=args.lut_errors,
                         workers=args.workers)
    curve = run_throughput(cfg, table, lut, workers=args.workers)
    _print_curve(curve)
    _write_curve(curve, args.out)


def _cmd_minsnr(args) -> None:
    table = load_mcs_table(args.mcs_table)
    mcs = table[args.mcs_index]
    search = dict(method=args.method or "rf2", n=args.n or 256,
                  target_bler=args.target_bler, list_size=args.list_size or 8,
                  seed=args.seed or 0,
                  eps=args.eps if args.eps is not None else DEFAULT_EPS,
                  max_blocks=args.max_blocks or DEFAULT_MAX_BLOCKS,
                  max_errors=args.max_errors or DEFAULT_MAX_ERRORS)
    res = min_required_snr(mcs=mcs, workers=args.workers, **search)
    flag = "  (warning: flat bracket)" if res.warned else ""
    print(f"mcs {mcs.index} (m={mcs.m}, rate {mcs.rate_x1024}/1024): "
          f"required snr {res.snr_db:.3f} dB at BLER {args.target_bler}{flag}")
    probes = SimCurve(metric="bler", points=list(res.probes))
    _print_rows(probes)
    if args.out is not None:
        doc = {"config": dict(search, mcs_index=mcs.index),
               "snr_db": res.snr_db, "warned": res.warned,
               "probes": [asdict(p) for p in res.probes]}
        _write(args.out, doc, ["snr_db", "bler", "blocks", "errors"],
               probes.rows())


def _worker_count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _add_common(p) -> None:
    p.add_argument("--config", help="JSON file with SimConfig keys")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output file (.csv or .json)")
    p.add_argument("--workers", type=_worker_count, default=1)
    p.add_argument("--method", choices=("rf1", "rf2", "ga"), default=None)
    p.add_argument("--m", type=int, default=0, help="bits per symbol")
    p.add_argument("--n", type=int, default=0, help="component block length")
    p.add_argument("--k", type=int, default=None, help="total information bits")
    p.add_argument("--rate", type=float, default=None, help="per-component rate K/(mN)")
    p.add_argument("--list-size", type=int, default=0)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--max-blocks", type=int, default=0)
    p.add_argument("--max-errors", type=int, default=0)
    p.add_argument("--snr-db", type=float, nargs="*", default=None,
                   help="explicit SNR grid points (dB)")
    p.add_argument("--snr-start", type=float, default=None)
    p.add_argument("--snr-stop", type=float, default=None)
    p.add_argument("--snr-step", type=float, default=None, help="default 0.5")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="mlcpcm",
                                 description="multilevel polar-coded modulation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-level capacity/dispersion table")
    _add_common(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("construct", help="emit per-level information sets")
    _add_common(p)
    p.add_argument("--seq", choices=("5g", "pw"), default="5g")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("bler", help="Monte Carlo BLER curve")
    _add_common(p)
    p.set_defaults(fn=_cmd_bler)

    p = sub.add_parser("throughput", help="adaptive-MCS fading throughput")
    _add_common(p)
    p.add_argument("--mcs-table", default=None, help="CSV overriding the packaged table")
    p.add_argument("--mcs", type=int, nargs="*", default=None,
                   help="restrict to these MCS indices")
    p.add_argument("--lut-blocks", type=int, default=2000)
    p.add_argument("--lut-errors", type=int, default=50)
    p.set_defaults(fn=_cmd_throughput)

    p = sub.add_parser("minsnr", help="required SNR for a BLER target")
    _add_common(p)
    p.add_argument("--mcs-table", default=None)
    p.add_argument("--mcs-index", type=int, required=True)
    p.add_argument("--target-bler", type=float, required=True)
    p.set_defaults(fn=_cmd_minsnr)

    args = ap.parse_args(argv)
    if args.command == "analyze":
        if not args.m:
            ap.error("analyze requires --m")
        if args.eps is None:
            args.eps = DEFAULT_EPS
    if args.command == "minsnr":
        unused = [flag for flag, value in (
            ("--config", args.config), ("--snr-db", args.snr_db),
            ("--snr-start", args.snr_start), ("--snr-stop", args.snr_stop),
            ("--snr-step", args.snr_step), ("--k", args.k),
            ("--rate", args.rate), ("--m", args.m or None)) if value is not None]
        if unused:
            ap.error(f"minsnr takes no {', '.join(unused)}: it walks its own "
                     "SNR grid and --mcs-index sets m and k")
    if args.command == "construct":
        if not args.m or not args.n:
            ap.error("construct requires --m and --n")
        if args.k is None and args.rate is None:
            ap.error("construct requires --k or --rate")
        if args.method is None:
            args.method = "rf2"
    try:
        args.fn(args)
    except _UsageError as exc:
        sub.choices[args.command].error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
