"""Command-line front end: certification runs and constant tables.

Subcommands: certify, gcc, constants, sweep.  All artifacts are UTF-8 JSON
(reports, constants) and RFC-4180 CSV (tables), written only after a run
completes so failures leave no partial reports behind.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import certify, quantum, scenario
from .certify import _json_ready
from .scenario import ConfigError


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _out_dir(args) -> Path:
    """The --out directory, created; one that cannot be is an input error."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot create {out} ({exc.strerror or exc})") from None
    return out


def _print_reports(reports) -> None:
    head = f"{'scenario':<20}{'hbar':>9}{'delta':>9}{'lower':>12}{'measured':>12}{'margin':>12}  verdict"
    print(head)
    print("-" * len(head))
    for r in reports:
        print(f"{r.scenario:<20}{r.hbar:>9.4g}{r.delta:>9.4g}"
              f"{r.lower_bound:>12.5g}{r.measured:>12.5g}{r.margin:>12.5g}  {r.verdict}")


# the columns of the sweep table, the hbar/delta tradeoff view: the ones
# between the first and the last are numbers
SWEEP_FIELDS = ("scenario", "hbar", "delta", "lower_bound", "measured", "margin", "verdict")
# the JSON strings certify writes for the non-finite numbers (certify._json_ready)
_NON_FINITE = {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan}


def _sweep_row(data: dict, where) -> dict:
    """The sweep row of a report's ``to_dict()``, with the values certify put
    in it.  A report that lacks a column, or has a non-number in a number
    column, is an input error naming ``where``."""
    missing = [k for k in SWEEP_FIELDS if k not in data]
    if missing:
        raise ConfigError(f"{where}: report lacks {', '.join(missing)}")
    row = {k: data[k] for k in SWEEP_FIELDS}
    for k in SWEEP_FIELDS[1:-1]:
        value = _NON_FINITE.get(row[k], row[k]) if isinstance(row[k], str) else row[k]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: {k}: expected a number, got {row[k]!r}")
        row[k] = value
    return row


def _write_sweep(path: Path, rows) -> None:
    """The sweep table of the rows, sorted by (hbar, delta)."""
    rows = sorted(rows, key=lambda r: (r["hbar"], r["delta"]))
    _write_csv(path, SWEEP_FIELDS, [[row[k] for k in SWEEP_FIELDS] for row in rows])


def cmd_certify(args) -> int:
    sc = scenario.load_config(args.config)
    out = _out_dir(args)
    reports = scenario.run_scenario(sc, jobs=args.jobs)
    rows = []
    for r in reports:
        path = out / scenario.report_filename(r.scenario, r.hbar, r.delta)
        data = r.to_dict()
        _write_json(path, data)
        rows.append(_sweep_row(data, path))
    _write_sweep(out / "sweep.csv", rows)
    _print_reports(reports)
    return 1 if any(r.verdict == "violated" for r in reports) else 0


def _report_row(path: Path):
    """The sweep row of a report file; None for other JSON files (no
    ``lower_bound``).  An unreadable report is an input error."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: unreadable report ({exc})") from None
    if not isinstance(data, dict) or "lower_bound" not in data:
        return None
    return _sweep_row(data, path)


def cmd_sweep(args) -> int:
    rows = [row for path in sorted(Path(args.reports).glob("*.json"))
            if (row := _report_row(path)) is not None]
    if not rows:
        print("no reports found", file=sys.stderr)
        return 2
    out = _out_dir(args)
    _write_sweep(out / "sweep.csv", rows)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def cmd_gcc(args) -> int:
    sc = scenario.load_config(args.config)
    out = _out_dir(args)
    geo = sc.geometric_summary()
    t = geo.table
    rows = ([*(float(v) for v in pt), float(occ), "" if math.isnan(hit) else float(hit)]
            for pt, occ, hit in zip(t.points, t.occupation[:, 0], t.first_hit[:, 0]))
    axes = range(1, sc.V.dim + 1)
    _write_csv(out / "gcc.csv", [f"x{i}" for i in axes] + [f"xi{i}" for i in axes]
               + ["occupation_time", "first_hit_time"], rows)
    summary = {
        "scenario": sc.name,
        "gc_satisfied": geo.gc_satisfied,
        "c_geo": geo.c_geo,
        "c_geo_refine_delta": geo.c_geo_refine_delta,
        "chi_geo": {str(d): c for d, c in zip(geo.deltas, geo.chi_geo)},
        "samples": len(t.points),
    }
    _write_json(out / "gcc.json", summary)
    print(f"GC satisfied: {geo.gc_satisfied}   C_geo = {geo.c_geo:.6g} "
          f"(refinement delta {geo.c_geo_refine_delta:.2e})")
    return 0


def cmd_constants(args) -> int:
    sc = scenario.load_config(args.config)
    out = _out_dir(args)
    geo = sc.geometric_summary()
    lip = geo.lip
    c_tl, lam_star = certify.toeplitz_coefficient_details(geo.T, lip)
    payload = {
        "T": geo.T,
        "lip_grad": lip,
        "d_K": geo.K.diameter,
        "spread_coefficient": certify.spread_coefficient(geo.T, lip),
        "toeplitz_coefficient": c_tl,
        "toeplitz_coefficient_lambda": lam_star,
        "balanced_growth_root": certify.balanced_growth_root(),
        "growth_factors": {
            str(lam): [certify.growth_factor(lam, lip, t) for t in (0.5, 1.0, 1.5, 2.0)]
            for lam in (0.5, 1.0, 2.0)
        },
    }
    lam, value = certify.explicit_toeplitz_candidate(geo.T, lip)
    if lip > 0:
        payload["lambda_equals_lip_bound"] = value
    else:
        payload["zero_lip_lambda"] = lam
        payload["zero_lip_bound"] = value
    _write_json(out / "constants.json", payload)
    for key, value in payload.items():
        if not isinstance(value, dict):
            print(f"{key:>32}: {value}")
    return 0


def positive(text: str) -> int:
    n = int(text)                       # argparse reports a ValueError itself
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="obscert",
        description="Numerical certification of observability inequalities "
                    "for the semiclassical Schrodinger equation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("certify", cmd_certify), ("gcc", cmd_gcc), ("constants", cmd_constants),
                     ("sweep", cmd_sweep)]:
        p = sub.add_parser(name)
        if name == "sweep":
            p.add_argument("--reports", required=True,
                           help="the directory of report JSONs that certify wrote")
        else:
            p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        if name == "certify":
            p.add_argument("--jobs", type=positive, default=1)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except quantum.NumericsError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
