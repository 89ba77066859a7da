"""Command-line pipeline: generate, transform, scaling, decompose.

Exit codes: 0 success, 1 runtime failure (bad data, unwritable output), 2 usage
error (unknown flags, a missing or directory --in path, invalid threshold lists).
All randomness is seed-controlled, so identical invocations produce
byte-identical output files. Threshold lists are plain fractions
(0.005 means 0.5%); percent strings are not accepted.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .engine import MoveConvention, TickSeries, overshoot_lengths
from .errors import ConfigurationError, IntrinsicTimeError
from .io import (
    EventFileFormat,
    TickFileSpec,
    TimestampUnit,
    _atomic_write,
    _fmt,
    _write_event_arrays,
    parse_ticks,
    write_ticks,
)
from .multiscale import ThresholdGrid, _scan_grid
from .scaling import decompose, fit_power_law, mean_overshoot_ratio
from .synthetic import NS_PER_SECOND, GbmParams, generate_gbm, generate_random_walk


def _delta_list(text: str) -> ThresholdGrid:
    try:
        return ThresholdGrid(tuple(sorted(
            float(part) for part in text.split(",") if part.strip())))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid threshold list {text!r}")
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _dt_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid interval {text!r}")
    ns = value * NS_PER_SECOND
    if not (math.isfinite(ns) and round(ns) >= 1):
        raise argparse.ArgumentTypeError(
            f"interval {text!r} must be finite and at least 1 ns")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intrinsic-time",
        description="Event-based intrinsic-time transforms and scaling-law "
                    "estimation for tick data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic tick CSV")
    gen.add_argument("--model", choices=["gbm", "walk"], required=True)
    gen.add_argument("--s0", type=float, default=1.0, help="initial price")
    gen.add_argument("--mu", type=float, default=None,
                     help="gbm drift per unit time (gbm only, default 0)")
    gen.add_argument("--sigma", type=float, default=None,
                     help="gbm volatility per sqrt unit time (gbm only, default 0)")
    gen.add_argument("--step-size", type=float, default=None,
                     help="walk log-price step (required for --model walk)")
    gen.add_argument("--steps", type=int, required=True, help="number of steps")
    gen.add_argument("--dt", type=float, default=None,
                     help="seconds per step (gbm only, default 1; a walk steps once a second)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output tick CSV path")

    common_in = argparse.ArgumentParser(add_help=False)
    common_in.add_argument("--in", dest="input", required=True,
                           help="input tick CSV path")
    common_in.add_argument("--deltas", type=_delta_list, required=True,
                           help="comma-separated threshold fractions, e.g. "
                                "0.001,0.005,0.01")
    common_in.add_argument("--convention",
                           choices=sorted(c.value for c in MoveConvention),
                           default=MoveConvention.RELATIVE.value)
    common_in.add_argument("--timestamp-unit",
                           choices=sorted(u.value for u in TimestampUnit),
                           default=TimestampUnit.NANOS.value)
    common_in.add_argument("--no-header", action="store_true",
                           help="input file has no header row")
    common_in.add_argument("--allow-unordered", action="store_true",
                           help="stably sort rows by timestamp instead of failing")

    tra = sub.add_parser("transform", parents=[common_in],
                         help="write per-threshold event files and a summary table")
    tra.add_argument("--out-dir", required=True)
    tra.add_argument("--format", choices=[f.value for f in EventFileFormat],
                     default=EventFileFormat.CSV.value)

    sca = sub.add_parser("scaling", parents=[common_in],
                         help="fit the DC-count power law and report overshoot ratios")
    sca.add_argument("--out", default=None, help="optional output CSV path")

    dec = sub.add_parser("decompose", parents=[common_in],
                         help="return-variance decomposition across thresholds")
    dec.add_argument("--dt-seconds", type=_dt_seconds, required=True,
                     help="physical sampling interval for returns")
    dec.add_argument("--out", default=None, help="optional output CSV path")

    return parser


def _write_report(path, kind: str, comment: str | None, header: str,
                  rows: list[tuple]) -> None:
    """A report CSV: schema line, optional ``#`` comment, header, then rows."""
    lines = [f"# intrinsic-time {kind}-csv v1", *([f"# {comment}"] if comment else []),
             header, *(",".join(map(str, row)) for row in rows)]
    _atomic_write(path, [("\n".join(lines) + "\n").encode("utf-8")])


def _read_input(args) -> TickSeries:
    spec = TickFileSpec(args.input, not args.no_header, args.timestamp_unit)
    return parse_ticks(spec, allow_unordered=args.allow_unordered)


def _cmd_generate(args) -> int:
    other_model = ({"--step-size": args.step_size} if args.model == "gbm"
                   else {"--mu": args.mu, "--sigma": args.sigma, "--dt": args.dt})
    stray = [flag for flag, value in other_model.items() if value is not None]
    if stray:
        print(f"error: --model {args.model} does not take {', '.join(stray)}", file=sys.stderr)
        return 2
    if args.model == "gbm":
        series = generate_gbm(GbmParams(
            s0=args.s0, mu=0.0 if args.mu is None else args.mu,
            sigma=0.0 if args.sigma is None else args.sigma,
            dt_step=1.0 if args.dt is None else args.dt, n_steps=args.steps,
            seed=args.seed))
    else:
        if args.step_size is None:
            print("error: --model walk requires --step-size", file=sys.stderr)
            return 2
        series = generate_random_walk(args.s0, args.step_size, args.steps, args.seed)
    write_ticks(series, args.out)
    print(f"wrote {len(series)} ticks to {args.out}")
    return 0


def _cmd_transform(args) -> int:
    series = _read_input(args)
    convention = MoveConvention(args.convention)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = EventFileFormat(args.format)

    rows = []
    print(f"{'delta':>10} {'n_dc':>8} {'n_os':>8} {'coastline':>12}")
    for arrays in _scan_grid(series, args.deltas, convention).finish():
        delta = arrays.config.delta
        path = out_dir / f"events_delta_{delta!r}.{fmt.value}"
        _write_event_arrays(arrays, path, fmt)
        coastline = len(arrays) * delta
        rows.append((repr(delta), arrays.n_dc, arrays.n_os, _fmt(coastline)))
        print(f"{delta!r:>10} {arrays.n_dc:>8} {arrays.n_os:>8} {coastline:>12.6g}")
    _write_report(out_dir / "summary.csv", "summary", None, "delta,n_dc,n_os,coastline", rows)
    return 0


def _cmd_scaling(args) -> int:
    series = _read_input(args)
    convention = MoveConvention(args.convention)
    rows = []
    for arrays in _scan_grid(series, args.deltas, convention).finish():
        delta = arrays.config.delta
        omegas = overshoot_lengths(arrays)
        ratio = mean_overshoot_ratio(omegas, delta) if omegas.size else float("nan")
        rows.append((delta, arrays.n_dc, ratio))

    fit = fit_power_law([(d, n) for d, n, _ in rows])
    print(f"dc-count power law: a={fit.a:.6g} b={fit.b:.6g} "
          f"r_squared={fit.r_squared:.6g} stderr_b={fit.stderr_b:.6g} "
          f"n_points={fit.n_points}")
    print(f"{'delta':>10} {'n_dc':>8} {'mean_overshoot_ratio':>22}")
    for delta, n_dc, ratio in rows:
        print(f"{delta!r:>10} {n_dc:>8} {ratio:>22.6g}")

    if args.out:
        _write_report(args.out, "scaling",
                      f"fit a={_fmt(fit.a)} b={_fmt(fit.b)} r_squared={_fmt(fit.r_squared)}"
                      f" stderr_b={_fmt(fit.stderr_b)} n_points={fit.n_points}",
                      "delta,n_dc,mean_overshoot_ratio",
                      [(repr(d), n, _fmt(r)) for d, n, r in rows])
    return 0


def _cmd_decompose(args) -> int:
    series = _read_input(args)
    convention = MoveConvention(args.convention)
    dt = int(round(args.dt_seconds * NS_PER_SECOND))
    report = decompose(series, args.deltas, dt, convention)

    print(f"lhs (squared-mean return at dt={args.dt_seconds:g}s): {report.lhs:.6g}")
    print(f"ratio_cv across thresholds: {_fmt(report.ratio_cv, '.6g', 'nan')}")
    if report.degenerate:
        print("warning: degenerate input (no usable rows or zero return variance)")
    print(f"{'delta':>10} {'n_dc':>8} {'os_variability':>16} {'rhs':>12} {'ratio':>12}")
    for row in report.rows:
        osv, rhs, ratio = (_fmt(x, ".6g", "-")
                           for x in (row.os_variability, row.rhs, row.ratio))
        flag = "  (insufficient)" if row.insufficient else ""
        print(f"{row.delta!r:>10} {row.n_dc:>8} {osv:>16} {rhs:>12} {ratio:>12}{flag}")

    if args.out:
        _write_report(args.out, "decomposition",
                      f"lhs={_fmt(report.lhs)}"
                      f" ratio_cv={_fmt(report.ratio_cv, blank='nan')}"
                      f" degenerate={str(report.degenerate).lower()}",
                      "delta,os_variability,n_dc,rhs,ratio,insufficient",
                      [(repr(row.delta), _fmt(row.os_variability), row.n_dc,
                        _fmt(row.rhs), _fmt(row.ratio), str(row.insufficient).lower())
                       for row in report.rows])
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "transform": _cmd_transform,
    "scaling": _cmd_scaling,
    "decompose": _cmd_decompose,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if "input" in args and (Path(args.input).is_dir() or not Path(args.input).exists()):
        print(f"error: input file not found: {args.input}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except (IntrinsicTimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
