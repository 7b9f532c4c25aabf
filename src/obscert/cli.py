"""Command-line front end: scenario runs, field dumps and constant tables.

Subcommands: certify, gcc, flow, propagate, husimi, constants, sweep.
All artifacts are UTF-8 JSON (reports, constants) and RFC-4180 CSV (fields,
tables), written only after a run completes so failures leave no partial
reports behind.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import certify, classical, phasespace, quantum, scenario
from .certify import CertificationReport, _json_ready
from .classical import IndicatorCutoff
from .scenario import ConfigError


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_json_ready(payload), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _report_filename(r: CertificationReport) -> str:
    return f"{r.scenario}_h{r.hbar:g}_d{r.delta:g}.json"


def _print_reports(reports) -> None:
    head = f"{'scenario':<20}{'hbar':>9}{'delta':>9}{'lower':>12}{'measured':>12}{'margin':>12}  verdict"
    print(head)
    print("-" * len(head))
    for r in reports:
        print(f"{r.scenario:<20}{r.hbar:>9.4g}{r.delta:>9.4g}"
              f"{r.lower_bound:>12.5g}{r.measured:>12.5g}{r.margin:>12.5g}  {r.verdict}")


def _sample_table_rows(table):
    dim = table.points.shape[1] // 2
    rows = []
    for pt, occ, hit in zip(table.points, table.occupation[:, 0], table.first_hit[:, 0]):
        rows.append([*(float(v) for v in pt),
                     float(occ), "" if math.isnan(hit) else float(hit)])
    header = ([f"x{i+1}" for i in range(dim)] + [f"xi{i+1}" for i in range(dim)]
              + ["occupation_time", "first_hit_time"])
    return header, rows


def _write_sweep(path: Path, rows) -> None:
    _write_csv(path, scenario.SWEEP_FIELDS,
               [[row[k] for k in scenario.SWEEP_FIELDS] for row in rows])


def cmd_certify(args) -> int:
    reports = scenario.run_scenario(scenario.load_config(args.config), jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for r in reports:
        _write_json(out / _report_filename(r), r.to_dict())
    _write_sweep(out / "sweep.csv", scenario.sweep_rows(reports))
    _print_reports(reports)
    return 1 if any(r.verdict == "violated" for r in reports) else 0


def _report_row(path: Path):
    """The sweep row of a report file; None for other JSON files (no
    ``lower_bound``).  An unreadable or incomplete report is an input error."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: unreadable report ({exc})") from None
    if not isinstance(data, dict) or "lower_bound" not in data:
        return None
    missing = [k for k in scenario.SWEEP_FIELDS if k not in data]
    if missing:
        raise ConfigError(f"{path}: report lacks {', '.join(missing)}")
    return {k: data[k] for k in scenario.SWEEP_FIELDS}


def cmd_sweep(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.reports:
        rows = [row for path in sorted(Path(args.reports).glob("*.json"))
                if (row := _report_row(path)) is not None]
        if not rows:
            print("no reports found", file=sys.stderr)
            return 2
        rows.sort(key=lambda r: (r["hbar"], r["delta"]))
    else:
        reports = scenario.run_scenario(scenario.load_config(args.config), jobs=args.jobs)
        rows = scenario.sweep_rows(reports)
    _write_sweep(out / "sweep.csv", rows)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def cmd_gcc(args) -> int:
    sc = scenario.load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    geo = sc.geometric_summary()
    header, rows = _sample_table_rows(geo.table)
    _write_csv(out / "gcc.csv", header, rows)
    summary = {
        "scenario": sc.name,
        "gc_satisfied": geo.gc_satisfied,
        "c_geo": geo.c_geo,
        "c_geo_refine_delta": geo.c_geo_refine_delta,
        "chi_geo": {str(d): c for d, c in zip(sc.deltas, geo.chi_geo)},
        "samples": len(rows),
    }
    _write_json(out / "gcc.json", summary)
    print(f"GC satisfied: {geo.gc_satisfied}   C_geo = {geo.c_geo:.6g} "
          f"(refinement delta {geo.c_geo_refine_delta:.2e})")
    return 0


def cmd_flow(args) -> int:
    sc = scenario.load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with scenario.named_aborts(sc.name):
        table = classical.occupation_batch(
            sc.V, sc.K.sample_grid(), sc.T, [IndicatorCutoff(sc.omega)], sc.numerics.dt_flow)
    header, rows = _sample_table_rows(table)
    _write_csv(out / "flow.csv", header, rows)
    print(f"wrote {out / 'flow.csv'} ({len(rows)} samples)")
    return 0


def cmd_propagate(args) -> int:
    sc = scenario.load_config(args.config)
    if sc.state.kind == "toeplitz":
        print("propagate needs a pure state; pick a coherent/gaussian/superposition state",
              file=sys.stderr)
        return 2
    grid, hbar, num = sc.grid, sc.hbars[0], sc.numerics
    n_steps, _ = quantum.split_steps(sc.T, num.dt)
    if n_steps < num.slices - 1:        # the observer saves at most one slice per step
        raise ConfigError(f"numerics.slices: {num.slices} slices need at least "
                          f"{num.slices - 1} steps, but T = {sc.T:g} at dt = {num.dt:g} "
                          f"takes {n_steps}")
    state = scenario.build_state(sc.state, grid, hbar)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    times = np.linspace(0.0, sc.T, num.slices)
    rows = []
    saved = [0]

    def observer(t, batch):
        if saved[0] < len(times) and t >= times[saved[0]] - 1e-12:
            dens = batch.row(0).density()
            for pt, d in zip(grid.points(), dens.reshape(-1)):
                rows.append([float(t), *(float(v) for v in pt), float(d)])
            saved[0] += 1

    final = quantum.propagate_series(sc.V, quantum.WaveBatch.of([state]), sc.T, num.dt,
                                     observer).row(0)
    header = ["t"] + [f"x{i+1}" for i in range(grid.dim)] + ["density"]
    _write_csv(out / "density.csv", header, rows)
    quantum.save_state(out / "final_state.qst", final, t=sc.T)
    print(f"wrote {out / 'density.csv'} and {out / 'final_state.qst'} "
          f"(hbar={hbar:g}, final norm {final.norm:.12f})")
    return 0


def cmd_husimi(args) -> int:
    sc = scenario.load_config(args.config)
    if sc.V.dim != 1:
        print("husimi fields are emitted for dim 1 only", file=sys.stderr)
        return 2
    if sc.state.kind == "toeplitz":
        print("husimi needs a pure state", file=sys.stderr)
        return 2
    hbar = sc.hbars[0]
    state = scenario.build_state(sc.state, sc.grid, hbar)
    pg = sc.numerics.phase_grid or {}
    side = 4.0 * math.sqrt(hbar)
    q_spec = pg.get("q")
    p_spec = pg.get("p")
    if q_spec is None or p_spec is None:
        qm, _ = quantum.position_moments(state)
        pm, _ = quantum.momentum_moments(state)
        q_spec = q_spec or [qm[0] - side, qm[0] + side, 65]
        p_spec = p_spec or [pm[0] - side, pm[0] + side, 65]
    q_axis = np.linspace(float(q_spec[0]), float(q_spec[1]), int(q_spec[2]))
    p_axis = np.linspace(float(p_spec[0]), float(p_spec[1]), int(p_spec[2]))
    field = phasespace.husimi(state, q_axis, p_axis)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [[float(q), float(p), float(field.values[i, j])]
            for i, q in enumerate(q_axis) for j, p in enumerate(p_axis)]
    _write_csv(out / "husimi.csv", ["x", "xi", "value"], rows)
    print(f"wrote {out / 'husimi.csv'} (integral over window {field.integral():.6f})")
    return 0


def cmd_constants(args) -> int:
    sc = scenario.load_config(args.config)
    T = sc.T
    lip = certify._lip_along_flow(sc.V, sc.geometric_summary().hull)
    c_tl, lam_star = certify.toeplitz_coefficient_details(T, lip)
    payload = {
        "T": T,
        "lip_grad": lip,
        "d_K": sc.K.diameter,
        "spread_coefficient": certify.spread_coefficient(T, lip),
        "toeplitz_coefficient": c_tl,
        "toeplitz_coefficient_lambda": lam_star,
        "balanced_growth_root": certify.balanced_growth_root(),
        "growth_factors": {
            str(lam): [_growth(lam, lip, t) for t in (0.5, 1.0, 1.5, 2.0)]
            for lam in (0.5, 1.0, 2.0)
        },
    }
    if lip > 0:
        payload["lambda_equals_lip_bound"] = certify._growth_objective(T, lip, lip)
    else:
        lam0, val0 = certify.zero_lip_candidate(T)
        payload["zero_lip_lambda"] = lam0
        payload["zero_lip_bound"] = val0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "constants.json", payload)
    for key, value in payload.items():
        if not isinstance(value, dict):
            print(f"{key:>32}: {value}")
    return 0


def _growth(lam, lip, t):
    from .transport import CostParams, growth_factor
    return growth_factor(CostParams(lam=lam, hbar=1.0), lip, t)


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
    for name, fn in [("certify", cmd_certify), ("gcc", cmd_gcc), ("flow", cmd_flow),
                     ("propagate", cmd_propagate), ("husimi", cmd_husimi),
                     ("constants", cmd_constants), ("sweep", cmd_sweep)]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "sweep"))
        p.add_argument("--out", default="out")
        if name in ("certify", "sweep"):
            p.add_argument("--jobs", type=positive, default=1)
        if name == "sweep":
            p.add_argument("--reports", default=None,
                           help="tabulate existing report JSONs instead of running")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    if args.command == "sweep" and not args.reports and not args.config:
        parser.error("sweep needs --config or --reports")
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
