"""Command-line interface wiring configuration, runs, resumability, and CSV/JSON output."""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import analysis, boundary, estimator, exactform, qmc, quantum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
# Python converts an int to decimal in time quadratic in its length: about 0.7 s
# at this many digits on 2 cores, against 0.18 s at 100,000 (0.25 s to parse
# this many).  The cap holds for ntheory's arguments and its results.
NTHEORY_DIGITS_MAX = 200_000


def _constants_table(m: int):
    rows = [
        (f"H_{m}", exactform.truncated_haar_volume(m)),
        (f"D_{m}", exactform.diagonal_volume(m)),
        (f"V_{m}_total", exactform.total_volume(m)),
        (f"V_{m}_sep_conjectured", exactform.conjectured_separable_volume(m)),
    ]
    with contextlib.suppress(exactform.UnsupportedDimensionError):  # where PPT decides separability
        rows.append((f"P_{m}_conjectured", exactform.conjectured_probability(m)))
    return rows


def cmd_constants(args) -> int:
    rows = _constants_table(args.m)
    out = [(name, v.plain_form(), v.factored_form(), f"{v.to_real():.9g}")
           for name, v in rows]
    if args.format == "json":
        for name, plain, factored, dec in out:
            print(json.dumps({"name": name, "plain": plain,
                              "factored": factored, "value": float(dec)}))
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["name", "plain", "factored", "value"])
        w.writerows(out)
    else:
        wide = max(len(r[0]) for r in out)
        for name, plain, factored, dec in out:
            forms = plain if plain == factored else f"{plain} = {factored}"
            print(f"{name:<{wide}} = {forms} = {dec}")
    return EXIT_OK


class _RowWriter:
    """Streams name -> value records to a CSV or JSON-lines sink, one flush per row.
    The CSV header is the first record's names, unless appending to an existing file."""

    def __init__(self, path: str, fmt: str, append: bool = False):
        self.fmt = fmt
        self.owns = path != "-"
        self.fh = open(path, "a" if append else "w", newline="") if self.owns else sys.stdout
        self.header_due = fmt == "csv" and not (append and self.owns)

    def write(self, record: dict):
        if self.fmt == "json":
            line = json.dumps(record)
        else:
            line = ",".join(str(v) for v in record.values())
            if self.header_due:
                line = ",".join(record) + "\n" + line
                self.header_due = False
        print(line, file=self.fh, flush=True)

    def close(self):
        if self.owns:
            self.fh.close()


def _estimate_row(row: estimator.CheckpointRow, cfg: estimator.RunConfig, deviation: bool) -> dict:
    """One estimate row as column name -> value, in output order."""
    rec = dict(n=row.n, est_D=row.est_D, est_H=row.est_H, est_DH=row.est_DH, est_V=row.est_V)
    for stat, values in (("vol", row.est_V_sep), ("prob", row.est_P)):
        for form, value in zip(cfg.forms, values, strict=True):
            # a form whose PPT test does not decide separability reports PPT quantities
            kind = "sep" if form.decides_separability else "ppt"
            rec[f"{kind}_{stat}_{form.label}"] = value
    rec.update(mean_neg=row.mean_neg, mean_logneg=row.mean_logneg, degenerate=row.degenerate)
    if deviation:
        for name, est, exact in (("D", row.est_D, exactform.diagonal_volume),
                                 ("H", row.est_H, exactform.truncated_haar_volume),
                                 ("V", row.est_V, exactform.total_volume)):
            rec[f"dev_{name}"] = est / exact(cfg.m).to_real() - 1.0
    return rec


def cmd_estimate(args) -> int:
    cfg = estimator.RunConfig(
        m=args.m,
        points=args.points,
        checkpoint_every=args.points if args.checkpoint_every is None else args.checkpoint_every,
        seed=args.seed,
        skip=args.skip,
        workers=args.workers,
    )
    resuming = bool(args.checkpoint_file) and os.path.exists(args.checkpoint_file)
    if resuming and args.out != "-" and not os.path.exists(args.out):  # earlier rows would be lost
        raise ValueError(f"resuming appends to --out, but {args.out} does not exist")
    writer = _RowWriter(args.out, args.format, append=resuming)
    try:
        estimator.run(cfg, checkpoint_path=args.checkpoint_file,
                      on_row=lambda row: writer.write(_estimate_row(row, cfg, args.deviation)))
    finally:
        writer.close()
    return EXIT_OK


def cmd_boundary(args) -> int:
    # --out opens at the first row, after estimate_area has checked every argument
    writer = None

    def write(row: boundary.AreaRow):
        nonlocal writer
        if writer is None:
            writer = _RowWriter(args.out, args.format)
        writer.write(dataclasses.asdict(row))

    try:
        boundary.estimate_area(
            args.m, args.points, grid=args.grid, seed=args.seed,
            free_index=args.free_index, skip=args.skip, on_row=write)
    finally:
        if writer is not None:
            writer.close()
    return EXIT_OK


def _volumes_from_csv(path: str, d: int) -> tuple[float, float]:
    """(est_V, separable volume) from an estimate CSV's last row, whose m must give d = m^2 - 1."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"no data rows in {path}")
    last = rows[-1]
    # DictReader keys a long row's extra fields under None and fills a short row's gaps with None
    if None in last or None in last.values():
        raise ValueError(f"{path}: the last row's field count differs from the header's")
    if any(c.startswith("ppt_vol_") for c in last):
        raise ValueError(f"{path} reports PPT volumes, not separable volumes")
    labels = [c.removeprefix("sep_vol_") for c in last if c.startswith("sep_vol_")]
    if "est_V" not in last or not labels:
        raise ValueError(f"{path} is not an estimate CSV (missing est_V/volume columns)")
    m = next((m for m in quantum.DIMENSIONS
              if [f.label for f in quantum.forms_for(m)] == labels), None)
    if m is None:
        raise ValueError(f"{path} volume columns {labels} match no supported m")
    if d != m * m - 1:
        raise ValueError(f"{path} holds m={m} estimates, so --d must be {m * m - 1}, not {d}")
    return float(last["est_V"]), float(last["sep_vol_" + labels[0]])


def cmd_iso_check(args) -> int:
    if args.csv:
        v_total, v_sep = _volumes_from_csv(args.csv, args.d)
    else:
        if args.v_total is None or args.v_sep is None:
            raise ValueError("need either --csv or both --v-total and --v-sep")
        v_total, v_sep = args.v_total, args.v_sep
    if args.a_sep is None:
        raise ValueError("need --a-sep (boundary-area estimate)")
    rep = dataclasses.asdict(analysis.levy_gromov_check(args.d, v_total, v_sep, args.a_sep))
    if args.format == "json":
        print(json.dumps(rep))
    else:
        for name, val in rep.items():
            print(f"{name} = {val}")
    return EXIT_OK


@contextlib.contextmanager
def _int_digits_unlimited():
    # Python's default refuses int <-> str conversions past 4,300 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _ntheory_int(text: str) -> int:
    if len(text) > NTHEORY_DIGITS_MAX:
        raise ValueError(f"an argument of {len(text)} characters is over the "
                         f"{NTHEORY_DIGITS_MAX}-digit cap")
    # "14#" is accepted as the product of the first 14 primes
    if text.endswith("#"):
        return exactform.primorial(int(text[:-1]))
    with _int_digits_unlimited():
        return int(text)


# ntheory op -> (function, number of arguments)
_NTHEORY_OPS = {
    "totient": (analysis.totient, 1),
    "sigma": (analysis.divisor_power_sum, 2),
    "labos": (analysis.labos_check, 2),
    "limit-term": (analysis.primorial_limit_term, 1),
}


def cmd_ntheory(args) -> int:
    vals = [_ntheory_int(a) for a in args.args]
    fn, arity = _NTHEORY_OPS[args.op]
    if len(vals) != arity:
        raise ValueError(f"{args.op} takes {arity} argument(s), got {len(vals)}")
    result = fn(*vals)
    if isinstance(result, int) and not isinstance(result, bool):
        # at most this many digits, known from the bits before any conversion
        digits = math.floor(result.bit_length() * math.log10(2)) + 1
        if digits > NTHEORY_DIGITS_MAX:
            raise ValueError(f"the {args.op} result has about {digits} decimal digits, over the "
                             f"{NTHEORY_DIGITS_MAX}-digit cap on printing it")
    with _int_digits_unlimited():
        if args.format == "json":
            text = json.dumps({"op": args.op, "args": args.args, "value": result})
        else:
            text = str(result).lower() if isinstance(result, bool) else str(result)
    print(text)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sepvol",
        description="QMC separable-volume estimation for small bipartite quantum systems")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("constants", help="exact volume/probability constants")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("estimate", help="cumulative QMC volume/probability estimates")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--checkpoint-every", type=int, default=None,
                   help="row cadence (default: a single final row)")
    p.add_argument("--seed", type=int, default=estimator.DEFAULT_SEED)
    p.add_argument("--skip", type=int, default=qmc.DEFAULT_SKIP)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="-")
    p.add_argument("--checkpoint-file", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--deviation", action="store_true",
                   help="append per-row relative deviations from the exact constants")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("boundary", help="co-area boundary estimate")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--points", type=int, required=True, help="number of base points")
    p.add_argument("--grid", type=int, default=boundary.DEFAULT_GRID)
    p.add_argument("--free-index", type=int, default=boundary.DEFAULT_FREE_INDEX)
    p.add_argument("--seed", type=int, default=estimator.DEFAULT_SEED)
    p.add_argument("--skip", type=int, default=qmc.DEFAULT_SKIP)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("iso-check", help="isoperimetric-profile comparison")
    p.add_argument("--d", type=int, default=35)
    p.add_argument("--csv", default=None, help="estimate CSV to read volumes from")
    p.add_argument("--v-total", type=float, default=None)
    p.add_argument("--v-sep", type=float, default=None)
    p.add_argument("--a-sep", type=float, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_iso_check)

    p = sub.add_parser("ntheory", help="totient/divisor-sum observations")
    p.add_argument("op", choices=tuple(_NTHEORY_OPS))
    p.add_argument("args", nargs="+")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_ntheory)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:  # ConfigMismatchError, UnsupportedDimensionError among them
        print(f"sepvol: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"sepvol: {err}", file=sys.stderr)
        return EXIT_IO
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as err:
        print(f"sepvol: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
