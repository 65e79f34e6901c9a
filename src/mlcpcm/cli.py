"""Command line front end: analysis tables, constructions, BLER and
throughput simulations and required-SNR searches.

Each subcommand parses only the flags it reads; any other flag is a usage
error (exit 2), as is bad input (an MCS entry with no information bit at
this N included), which is refused before the first frame is simulated.
Flags default to unset. ``bler`` and ``throughput`` also read a JSON file
(``--config``) whose keys are SimConfig's fields: an unset flag falls back
to the file, then to SimConfig's default, and an unknown key is a usage
error, as are m and k for ``throughput``, which takes them per frame from
the MCS table, and max_errors, since it simulates every frame. ``minsnr``
falls back to SimConfig's defaults. Results print as text and can be written
to .csv or .json (JSON carries a config echo: for ``minsnr`` the probes'
SimConfig without its grid, then the target and the MCS index)."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from .constellation import build_constellation
from .construction import (DEFAULT_EPS, finite_bl_values, five_g_sequence,
                           pw_sequence)
from .mp_analysis import level_stats
from .sim import (METHODS, SimConfig, SimCurve, build_bler_lut,
                  build_construction, k_for_rate, load_mcs_table,
                  min_required_snr, run_bler, run_throughput)


_MAX_GRID_POINTS = 100_000  # SNR points of a --snr-start/--snr-stop grid
# the CLI's own defaults for bler, throughput and minsnr; the other fields
# fall back to SimConfig's
_DEFAULTS = {"method": "rf2", "n": 256}


class _UsageError(Exception):
    """Bad command-line input, reported as a usage error of the subcommand."""


def _checked(fn, *args, **kwargs):
    """fn(*args, **kwargs), its ValueError on bad input as a usage error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _parse_grid(args) -> tuple[float, ...] | None:
    """The SNR grid the flags give, or None if they give none."""
    if args.snr_start is None:
        if args.snr_stop is not None or args.snr_step is not None:
            raise _UsageError("--snr-stop and --snr-step need --snr-start")
        return None if args.snr_db is None else tuple(args.snr_db)
    if args.snr_stop is None:
        raise _UsageError("--snr-stop required with --snr-start")
    step = 0.5 if args.snr_step is None else args.snr_step
    if not step > 0.0:
        raise _UsageError(f"--snr-step must be positive, got {step}")
    if args.snr_stop < args.snr_start:
        raise _UsageError("--snr-stop lies below --snr-start")
    stop = args.snr_stop + step / 2
    # np.arange's point count, bounded before the grid is built
    if (stop - args.snr_start) / step > _MAX_GRID_POINTS:
        raise _UsageError(
            f"the SNR grid would hold more than {_MAX_GRID_POINTS} points")
    return tuple(np.arange(args.snr_start, stop, step))


def _write(out: str, doc, header: list[str], rows) -> None:
    """Write ``doc`` as .json, or ``header`` and ``rows`` as .csv."""
    if out.endswith(".json"):
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2)
    else:
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
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
    grid = _parse_grid(args)
    if grid is None:
        raise _UsageError("analyze needs --snr-db or --snr-start/--snr-stop")
    if args.eps is not None and args.n is None:
        raise _UsageError("--eps needs --n: it sets the finite-N rates")
    eps = DEFAULT_EPS if args.eps is None else args.eps
    c = _checked(build_constellation, args.m)
    rows = []
    for snr in grid:
        cap, disp, total = level_stats(c, snr)
        row = {"snr_db": snr, "capacity_total": total}
        for k in range(c.m):
            row[f"i_w{k + 1}"] = cap[k]
            row[f"v_w{k + 1}"] = disp[k]
        if args.n is not None:
            mv = _checked(finite_bl_values, c, snr, args.n, eps)
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
    if args.eps is not None and args.method != "rf2":
        raise _UsageError("--eps applies to --method rf2 only")
    if args.seq is not None and args.method == "ga":
        raise _UsageError("--seq applies to --method rf1 and rf2 only")
    if args.snr_db is not None and args.method != "ga":
        raise _UsageError("--snr-db applies to --method ga only")
    if args.snr_db is None and args.method == "ga":
        raise _UsageError("ga construction needs --snr-db")
    k = args.k if args.k is not None else k_for_rate(args.m, args.n, args.rate)
    # an unset --seq leaves the choice to the construction's default_sequence
    seq = (None if args.seq is None else five_g_sequence() if args.seq == "5g"
           else _checked(pw_sequence, args.n))
    eps = DEFAULT_EPS if args.eps is None else args.eps
    c = _checked(build_constellation, args.m)
    cc = _checked(build_construction, args.method, c, k, args.n, eps, args.snr_db, seq)
    print(f"# method={cc.method} m={cc.m} n={cc.n} k={cc.k_total} "
          f"design_snr_db={cc.design_snr_db} eps={cc.eps}")
    rows = []
    for lvl, code in enumerate(cc.codes, 1):
        rows.append({"level": lvl, "k": code.k, "crc_len": code.crc_len,
                     "info_set": " ".join(map(str, code.info_set))})
        print(f"level {lvl}: K={rows[-1]['k']} crc={rows[-1]['crc_len']} "
              f"A={rows[-1]['info_set']}")
    if args.out:
        _write_rows(rows, ["level", "k", "crc_len", "info_set"], args.out)


def _given(args) -> dict:
    """The SimConfig fields set by flags: the flags left unset are None."""
    return {f.name: getattr(args, f.name) for f in fields(SimConfig)
            if getattr(args, f.name, None) is not None}


def _sim_config(args, base: dict,
                unread: tuple[tuple[tuple[str, ...], str], ...] = ()) -> SimConfig:
    """``base``, overridden by the --config file, overridden by the flags.

    The file may not set the fields of ``unread``, pairs of (fields, why the
    command does not read them)."""
    merged = dict(base)
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise _UsageError(f"--config: {exc}") from None
        if not isinstance(raw, dict):
            raise _UsageError("--config must hold a JSON object")
        for keys, why in unread:
            refused = [key for key in keys if key in raw]
            if refused:
                raise _UsageError(f"--config may not set {', '.join(refused)}: "
                                  f"{why}")
        merged.update(raw)
    merged.update(_given(args))
    grid = _parse_grid(args)
    if grid is not None:
        merged["snr_grid_db"] = grid
    if "snr_grid_db" not in merged:
        raise _UsageError("an SNR grid is required (--snr-db / --snr-start or config)")
    try:
        if getattr(args, "rate", None) is not None:
            merged["k"] = k_for_rate(merged["m"], merged["n"], args.rate)
        return SimConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from None


def _cmd_bler(args) -> None:
    # m and k have no default: 0 is refused below and by SimConfig
    cfg = _sim_config(args, dict(_DEFAULTS, m=0, k=0))
    if cfg.k < 1:
        raise _UsageError("bler needs k >= 1: give --k, --rate or k in --config")
    curve = run_bler(cfg, workers=args.workers)
    _print_curve(curve)
    _write_curve(curve, args.out)


def _mcs_table(path: str | None):
    try:
        return load_mcs_table(path)
    except (OSError, KeyError, ValueError) as exc:
        raise _UsageError(f"--mcs-table: {exc}") from None


def _cmd_throughput(args) -> None:
    # m and k are placeholders: the MCS table sets them per frame
    cfg = _sim_config(args, dict(_DEFAULTS, m=2, k=0), (
        (("m", "k"), "set per frame by the MCS table"),
        (("max_errors",), "throughput simulates every frame")))
    table = _mcs_table(args.mcs_table)
    if args.mcs is not None:
        unknown = sorted(set(args.mcs) - {e.index for e in table})
        if unknown:
            raise _UsageError(f"--mcs {unknown} not in the MCS table "
                              f"(0 .. {len(table) - 1})")
        table = tuple(e for e in table if e.index in args.mcs)
    lut = _checked(build_bler_lut, cfg.method, table, cfg.n,
                   list_size=cfg.list_size, seed=(cfg.seed + 1) % 2**64,
                   eps=cfg.eps, max_blocks=args.lut_blocks,
                   max_errors=args.lut_errors, workers=args.workers)
    curve = run_throughput(cfg, table, lut, workers=args.workers)
    _print_curve(curve)
    _write_curve(curve, args.out)


def _cmd_minsnr(args) -> None:
    table = _mcs_table(args.mcs_table)
    if not 0 <= args.mcs_index < len(table):
        raise _UsageError(f"--mcs-index must lie in [0, {len(table) - 1}], "
                          f"got {args.mcs_index}")
    mcs = table[args.mcs_index]
    settings = {**_DEFAULTS, **_given(args)}
    res = _checked(min_required_snr, mcs=mcs, target_bler=args.target_bler,
                   workers=args.workers, **settings)
    flag = "  (warning: flat bracket)" if res.warned else ""
    print(f"mcs {mcs.index} (m={mcs.m}, rate {mcs.rate_x1024}/1024): "
          f"required snr {res.snr_db:.3f} dB at BLER {args.target_bler}{flag}")
    probes = SimCurve(metric="bler", points=list(res.probes))
    _print_rows(probes)
    if args.out is not None:
        doc = {"config": dict(res.config, target_bler=args.target_bler,
                              mcs_index=mcs.index),
               "snr_db": res.snr_db, "warned": res.warned,
               "probes": [asdict(p) for p in res.probes]}
        _write(args.out, doc, ["snr_db", "bler", "blocks", "errors"],
               probes.rows())


def _count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _open_unit(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text!r}")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text!r}")
    return value


def _out_file(text: str) -> str:
    if not text.endswith((".csv", ".json")):
        raise argparse.ArgumentTypeError(f"must end in .csv or .json, got {text!r}")
    return text


def _add_grid(p) -> None:
    first = p.add_mutually_exclusive_group()
    first.add_argument("--snr-db", type=_finite, nargs="+",
                       help="explicit SNR grid points (dB)")
    first.add_argument("--snr-start", type=_finite)
    p.add_argument("--snr-stop", type=_finite)
    p.add_argument("--snr-step", type=_finite, help="default 0.5")


def _add_k(p, required: bool) -> None:
    k = p.add_mutually_exclusive_group(required=required)
    k.add_argument("--k", type=int, help="total information bits")
    k.add_argument("--rate", type=_rate, help="per-component rate K/(mN)")


def _add_simulation(p) -> None:
    """The flags of bler, throughput and minsnr: unset ones are None."""
    p.add_argument("--method", choices=METHODS,
                   help=f"default {_DEFAULTS['method']}")
    p.add_argument("--n", type=int,
                   help=f"component block length, default {_DEFAULTS['n']}")
    p.add_argument("--list-size", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--max-blocks", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=_count, default=1)
    p.add_argument("--out", type=_out_file, help="output file (.csv or .json)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="mlcpcm", allow_abbrev=False,
                                 description="multilevel polar-coded modulation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(fn=fn)
        return p

    p = command("analyze", _cmd_analyze, "per-level capacity/dispersion table")
    p.add_argument("--m", type=int, required=True, help="bits per symbol")
    p.add_argument("--n", type=_count, help="block length of the finite-N rates")
    p.add_argument("--eps", type=float, help="default 0.1")
    _add_grid(p)
    p.add_argument("--out", type=_out_file, help="output file (.csv or .json)")

    p = command("construct", _cmd_construct, "emit per-level information sets")
    p.add_argument("--method", choices=METHODS, default="rf2")
    p.add_argument("--m", type=int, required=True, help="bits per symbol")
    p.add_argument("--n", type=int, required=True, help="component block length")
    _add_k(p, required=True)
    p.add_argument("--eps", type=float, help="rf2 only, default 0.1")
    p.add_argument("--snr-db", type=_finite, help="design SNR, ga only")
    p.add_argument("--seq", choices=("5g", "pw"),
                   help="rf1/rf2 only; default 5g up to N = 1024, pw beyond")
    p.add_argument("--out", type=_out_file, help="output file (.csv or .json)")

    p = command("bler", _cmd_bler, "Monte Carlo BLER curve")
    p.add_argument("--config", help="JSON file with SimConfig keys")
    _add_simulation(p)
    p.add_argument("--max-errors", type=int)
    p.add_argument("--m", type=int, help="bits per symbol")
    _add_k(p, required=False)
    _add_grid(p)

    p = command("throughput", _cmd_throughput, "adaptive-MCS fading throughput")
    p.add_argument("--config", help="JSON file with SimConfig keys")
    _add_simulation(p)
    _add_grid(p)
    p.add_argument("--mcs-table", help="CSV overriding the packaged table")
    p.add_argument("--mcs", type=int, nargs="+", help="restrict to these MCS indices")
    p.add_argument("--lut-blocks", type=_count, default=2000)
    p.add_argument("--lut-errors", type=_count, default=50)

    p = command("minsnr", _cmd_minsnr, "required SNR for a BLER target")
    _add_simulation(p)
    p.add_argument("--max-errors", type=int)
    p.add_argument("--mcs-table", help="CSV overriding the packaged table")
    p.add_argument("--mcs-index", type=int, required=True)
    p.add_argument("--target-bler", type=_open_unit, required=True)

    args, unknown = ap.parse_known_args(argv)
    parser = sub.choices[args.command]
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        args.fn(args)
    except _UsageError as exc:
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
