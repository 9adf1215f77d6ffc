"""Command-line interface wiring configuration, runs, resumability, and CSV/JSON output."""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import analysis, boundary, estimator, exactform, qmc

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


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
    """Streams result rows to a CSV or JSON-lines sink, one flush per row."""

    def __init__(self, path: str, fmt: str, header: list[str], append: bool):
        self.fmt = fmt
        self.header = header
        self.owns = path != "-"
        self.fh = open(path, "a" if append else "w", newline="") if self.owns else sys.stdout
        if fmt == "csv" and not (append and self.owns):
            print(",".join(header), file=self.fh, flush=True)

    def write(self, values: list):
        if self.fmt == "json":
            line = json.dumps(dict(zip(self.header, values)))
        else:
            line = ",".join(str(v) for v in values)
        print(line, file=self.fh, flush=True)

    def close(self):
        if self.owns:
            self.fh.close()


def _estimate_header(cfg: estimator.RunConfig, deviation: bool) -> list[str]:
    # a form whose PPT test does not decide separability reports PPT quantities
    kinds = [("sep" if f.decides_separability else "ppt", f.label) for f in cfg.forms]
    cols = ["n", "est_D", "est_H", "est_DH", "est_V"]
    cols += [f"{kind}_vol_{label}" for kind, label in kinds]
    cols += [f"{kind}_prob_{label}" for kind, label in kinds]
    cols += ["mean_neg", "mean_logneg", "degenerate"]
    if deviation:
        cols += ["dev_D", "dev_H", "dev_V"]
    return cols


def _row_values(row: estimator.CheckpointRow, m: int, deviation: bool) -> list:
    vals = [row.n, row.est_D, row.est_H, row.est_DH, row.est_V]
    vals += list(row.est_V_sep) + list(row.est_P)
    vals += [row.mean_neg, row.mean_logneg, row.degenerate]
    if deviation:
        vals += [row.est_D / exactform.diagonal_volume(m).to_real() - 1.0,
                 row.est_H / exactform.truncated_haar_volume(m).to_real() - 1.0,
                 row.est_V / exactform.total_volume(m).to_real() - 1.0]
    return vals


def _workers(args) -> int:
    if args.workers is not None:
        return args.workers
    return int(os.environ.get("SEPVOL_WORKERS", "1"))


def cmd_estimate(args) -> int:
    cfg = estimator.RunConfig(
        m=args.m,
        points=args.points,
        checkpoint_every=args.points if args.checkpoint_every is None else args.checkpoint_every,
        seed=args.seed,
        skip=args.skip,
        workers=_workers(args),
    )
    resuming = bool(args.checkpoint_file) and os.path.exists(args.checkpoint_file)
    if resuming and args.out != "-" and not os.path.exists(args.out):  # earlier rows would be lost
        raise ValueError(f"resuming appends to --out, but {args.out} does not exist")
    writer = _RowWriter(args.out, args.format,
                        _estimate_header(cfg, args.deviation), append=resuming)
    try:
        estimator.run(cfg, checkpoint_path=args.checkpoint_file,
                      on_row=lambda row: writer.write(_row_values(row, cfg.m, args.deviation)))
    finally:
        writer.close()
    return EXIT_OK


def cmd_boundary(args) -> int:
    # --out opens at the first row, after estimate_area has checked every argument
    writer = None

    def write(row: boundary.AreaRow):
        nonlocal writer
        if writer is None:
            header = [f.name for f in dataclasses.fields(row)]
            writer = _RowWriter(args.out, args.format, header, append=False)
        writer.write(list(dataclasses.astuple(row)))

    try:
        boundary.estimate_area(
            args.m, args.points, grid=args.grid, seed=args.seed,
            free_index=args.free_index, skip=args.skip, on_row=write)
    finally:
        if writer is not None:
            writer.close()
    return EXIT_OK


def _volumes_from_csv(path: str) -> tuple[float, float]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"no data rows in {path}")
    last = rows[-1]
    vol_cols = [c for c in last if c.startswith(("sep_vol_", "ppt_vol_"))]
    if "est_V" not in last or not vol_cols:
        raise ValueError(f"{path} is not an estimate CSV (missing est_V/volume columns)")
    return float(last["est_V"]), float(last[vol_cols[0]])


def cmd_iso_check(args) -> int:
    if args.csv:
        v_total, v_sep = _volumes_from_csv(args.csv)
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


def _ntheory_int(text: str) -> int:
    # "14#" is accepted as the product of the first 14 primes
    if text.endswith("#"):
        return exactform.primorial(int(text[:-1]))
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
    if args.format == "json":
        print(json.dumps({"op": args.op, "args": args.args, "value": result}))
    else:
        print(str(result).lower() if isinstance(result, bool) else result)
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
    p.add_argument("--workers", type=int, default=None,
                   help="default: $SEPVOL_WORKERS or 1")
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
    except (np.linalg.LinAlgError, FloatingPointError) as err:
        print(f"sepvol: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
