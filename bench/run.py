"""obscert benchmark: set-up time, run time, peak memory and correctness.

Run from the root of a checkout:

    python3 bench/run.py --workload soundness --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics (setup_s, run_s, peak_rss_mb);
``--trace 1`` runs an untraced, a traced and another untraced pass and prints
the per-layer metrics, writing the spans to
``bench/out/trace-<workload>-seed<n>.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything runs in
one process with ``--jobs 1``; library thread pools keep their defaults and
are recorded.  See bench/README.md for the workloads and the trace format.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
CONFIGS = BENCH / "configs"
REFERENCE = BENCH / "reference.json"
OUT = BENCH / "out"

CERT_WORKLOADS = ("soundness", "grid2d")
WORKLOADS = CERT_WORKLOADS + ("transport_lp",)

# Set-up is one fresh interpreter per spawn; single spawns ranged 0.67-1.47 s.
# Two passes at least, because single passes on a shared host vary by ~15%.
MIN_PASSES = 2
SETUP_SPAWNS = 5
TRACE_SETUP_SPAWNS = 3

# transport_lp: atoms per side of the seeded random measures, and the cost
# parameters of toeplitz_bound (two exact LPs per call).  256 atoms would need
# 1.5-2 GB for the dense equality matrix, so the sizes stop at 192.
TRANSPORT_SIZES = (64, 128, 192)
TRANSPORT_LAM, TRANSPORT_HBAR = 0.7, 0.05
MARGINAL_TOL = 1e-9
COST_RTOL = 1e-12

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.scipy_optimize_import_s": "s",
    "scenario.load_config_s": "s",
    "scenario.build_state_s": "s",
    "scenario.columns": "count",
    "classical.occupation_s": "s",
    "classical.passes": "count",
    "classical.distinct_pass_ratio": "1",
    "classical.sample_steps": "count",
    "classical.ns_per_sample_step": "ns",
    "classical.bisection_steps": "count",
    "quantum.propagate_s": "s",
    "quantum.observer_s": "s",
    "quantum.observer_ratio": "1",
    "quantum.propagations": "count",
    "quantum.strang_steps": "count",
    "quantum.ns_per_step_point": "ns",
    "phasespace.husimi_s": "s",
    "phasespace.overlap_points": "count",
    "phasespace.ns_per_overlap_point_node": "ns",
    "certify.self_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "B",
    "transport.plan_s": "s",
    "transport.lp_vars": "count",
    "transport.us_per_lp_var": "us",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def log(msg: str) -> None:
    print(msg, flush=True)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "obscert").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    caches = None
    try:
        res = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30)
        caches = {k.strip(): v.strip() for k, _, v in
                  (line.partition(":") for line in res.stdout.splitlines())
                  if "cache" in k.lower()}
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "caches": caches,
        "commit": commit,
        "src_sha256": source_digest(),
        "jobs": 1,
    }


def child_env() -> dict:
    env = dict(os.environ)
    # An absolute path keeps the import working whatever the child's cwd.
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
import {module}
t1 = time.perf_counter()
from obscert import scenario
for path in sys.argv[1:]:
    scenario.load_config(path)
t2 = time.perf_counter()
print(json.dumps({{"import_s": t1 - t0, "load_config_s": t2 - t1}}))
"""


def spawn_setup(workload: str, importtime: bool = False):
    """One fresh interpreter: import the entry module and load the configs.
    Returns (wall seconds, the child's own timings, its stderr)."""
    module = "obscert.transport" if workload == "transport_lp" else "obscert.cli"
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", SETUP_CHILD.format(module=module),
           *(str(p) for p in config_paths(workload))]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                         text=True, timeout=120)
    wall = time.perf_counter() - t0
    if res.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{res.stderr}")
    return wall, json.loads(res.stdout.strip().splitlines()[-1]), res.stderr


def scipy_optimize_import_s(importtime_stderr: str) -> float:
    """Cumulative `scipy.optimize` import time from `-X importtime` output."""
    for line in importtime_stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
            return int(parts[1].strip()) * 1e-6
    return 0.0


# ---------------------------------------------------------------------------
# certification workloads
# ---------------------------------------------------------------------------

def config_paths(workload: str) -> list[Path]:
    if workload == "transport_lp":
        return []
    return sorted((CONFIGS / workload).glob("*.json"))


def report_cells(out: Path) -> dict:
    """(scenario, hbar, delta) -> report fields, from the report JSONs in out."""
    cells = {}
    for path in sorted(out.glob("*.json")):
        r = json.loads(path.read_text(encoding="utf-8"))
        cells[(r["scenario"], float(r["hbar"]), float(r["delta"]))] = r
    return cells


def cell_failures(ref_cells: list[dict], code: int, out: Path) -> list[str]:
    """Reasons each reference cell of one config failed; empty when all pass.

    A cell fails if its run aborted, it is `violated`, its verdict differs
    from the reference, or `measured`/`lower_bound` moved by more than the
    reference cell's own eps_num.
    """
    got = report_cells(out) if out.is_dir() else {}
    reasons = []
    for ref in ref_cells:
        key = (ref["scenario"], float(ref["hbar"]), float(ref["delta"]))
        tag = f"{key[0]} hbar={key[1]:g} delta={key[2]:g}"
        r = got.get(key)
        if code not in (0, 1) or r is None:
            reasons.append(f"{tag}: aborted (exit {code})")
        elif r["verdict"] == "violated":
            reasons.append(f"{tag}: violated")
        elif r["verdict"] != ref["verdict"]:
            reasons.append(f"{tag}: verdict {r['verdict']} != {ref['verdict']}")
        else:
            eps = float(ref["eps_num"])
            for field in ("measured", "lower_bound"):
                a, b = float(r[field]), float(ref[field])
                if not (a == b or abs(a - b) <= eps):
                    reasons.append(f"{tag}: {field} {r[field]!r} vs {ref[field]!r} "
                                   f"beyond eps_num {eps:.3g}")
                    break
    return reasons


def run_certify(path: Path, out: Path) -> int:
    """`obscert certify` in-process, stdout captured; the exit code."""
    from obscert import cli
    with redirect_stdout(io.StringIO()):
        return cli.main(["certify", "--config", str(path), "--out", str(out),
                         "--jobs", "1"])


def certify_pass(workload: str, work: Path, reference: dict, tracer=None):
    """One pass over the workload's configs: (seconds, attempted, failed)."""
    elapsed, attempted, failed = 0.0, 0, 0
    for path in config_paths(workload):
        out = work / path.stem
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.set_config(path.stem)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = run_certify(path, out)
            else:
                with tracer.span("cli.main"):
                    code = run_certify(path, out)
        except Exception:
            traceback.print_exc()
            code = -1
        elapsed += time.perf_counter() - t0
        ref_cells = reference[f"{workload}/{path.stem}"]
        reasons = cell_failures(ref_cells, code, out)
        for reason in reasons:
            print(f"FAIL {reason}", file=sys.stderr)
        attempted += len(ref_cells)
        failed += len(reasons)
    return elapsed, attempted, failed


# ---------------------------------------------------------------------------
# transport_lp
# ---------------------------------------------------------------------------

def transport_inputs(seed: int):
    """Seeded atomic measure pairs in 1-D phase space, one per size:
    points N(0, 1), target shifted by +0.3, weights U(0, 1)."""
    import numpy as np
    from obscert.transport import AtomicMeasure
    rng = np.random.default_rng(seed)
    pairs = []
    for n in TRANSPORT_SIZES:
        f = AtomicMeasure(rng.standard_normal((n, 2)), rng.uniform(0.0, 1.0, n))
        mu = AtomicMeasure(rng.standard_normal((n, 2)) + 0.3, rng.uniform(0.0, 1.0, n))
        pairs.append((f, mu))
    return pairs


@contextmanager
def captured_plans():
    """Record (f, mu, lam, result) of every transport_plan call."""
    from obscert import transport
    original = transport.transport_plan
    calls = []

    def capture(f, mu, lam=1.0):
        result = original(f, mu, lam)
        calls.append((f, mu, lam, result))
        return result

    transport.transport_plan = capture
    try:
        yield calls
    finally:
        transport.transport_plan = original


def lp_failures(calls) -> list[str]:
    """Marginals within MARGINAL_TOL and cost equal to sum(plan * C)."""
    import numpy as np
    from obscert.transport import cost_matrix
    reasons = []
    for f, mu, lam, (cost, plan) in calls:
        tag = f"LP {len(f.weights)}x{len(mu.weights)} lam={lam:g}"
        if (np.max(np.abs(plan.sum(axis=1) - f.weights)) > MARGINAL_TOL
                or np.max(np.abs(plan.sum(axis=0) - mu.weights)) > MARGINAL_TOL):
            reasons.append(f"{tag}: marginal off by more than {MARGINAL_TOL:g}")
            continue
        direct = float(np.sum(plan * cost_matrix(f, mu, lam)))
        if not abs(cost - direct) <= COST_RTOL * max(1.0, abs(direct)):
            reasons.append(f"{tag}: cost {cost!r} != sum(plan*C) {direct!r}")
    return reasons


def transport_pass(pairs):
    """toeplitz_bound on every pair: (seconds, attempted, failed).  Each call
    is two LPs; both fail if the call raises or constructive > standard."""
    from obscert import transport
    params = transport.CostParams(lam=TRANSPORT_LAM, hbar=TRANSPORT_HBAR)
    elapsed, attempted, failed = 0.0, 0, 0
    for f, mu in pairs:
        with captured_plans() as calls:
            t0 = time.perf_counter()
            try:
                bound = transport.toeplitz_bound(f, mu, params)
            except RuntimeError:
                traceback.print_exc()
                bound = None
            elapsed += time.perf_counter() - t0
        tag = f"toeplitz_bound {len(f.weights)} atoms"
        if bound is None or len(calls) != 2:
            reasons = [f"{tag}: {len(calls)} of 2 LPs solved"] * 2
        elif bound.constructive > bound.standard:
            reasons = [f"{tag}: constructive {bound.constructive!r} "
                       f"> standard {bound.standard!r}"] * 2
        else:
            reasons = lp_failures(calls)
        for reason in reasons:
            print(f"FAIL {reason}", file=sys.stderr)
        attempted += 2
        failed += len(reasons)
    return elapsed, attempted, failed


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Workload:
    """The passes of one workload, with its inputs made before timing."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.work = work
        if name == "transport_lp":
            self.pairs = transport_inputs(seed)
        else:
            self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))

    def run_pass(self, tracer=None):
        """One pass, traced when a tracer is given: (seconds, attempted, failed)."""
        if tracer is not None:
            tracer.install()
        try:
            if self.name == "transport_lp":
                return transport_pass(self.pairs)
            return certify_pass(self.name, self.work, self.reference, tracer)
        finally:
            if tracer is not None:
                tracer.unpatch()

    def report_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.work.rglob("*") if p.is_file())


def per_layer_metrics(tracer, setup_children, importtime_stderr, traced_s,
                      untraced_s, report_bytes) -> dict:
    self_s = tracer.self_times()
    c = tracer.counters
    observer_s = sum(r["aggregated_child_s"] for r in tracer.spans)
    occupation_s = self_s["classical.occupation_batch"]
    propagate_s = self_s["quantum.propagate_series"]
    husimi_s = self_s["phasespace.husimi_mass"]
    plan_s = self_s["transport.transport_plan"]
    values = {
        "setup.import_s": statistics.median(ch["import_s"] for ch in setup_children),
        "setup.scipy_optimize_import_s": scipy_optimize_import_s(importtime_stderr),
        "scenario.load_config_s": self_s["scenario.load_config"],
        "scenario.build_state_s": self_s["scenario.build_state"],
        "scenario.columns": c["scenario.columns"],
        "classical.occupation_s": occupation_s,
        "classical.passes": c["classical.passes"],
        "classical.distinct_pass_ratio": ratio(c["classical.distinct_passes"],
                                               c["classical.passes"]),
        "classical.sample_steps": c["classical.sample_steps"],
        "classical.ns_per_sample_step": ratio(occupation_s * 1e9, c["classical.sample_steps"]),
        "classical.bisection_steps": c["classical.bisection_steps"],
        "quantum.propagate_s": propagate_s,
        "quantum.observer_s": observer_s,
        "quantum.observer_ratio": ratio(observer_s, propagate_s),
        "quantum.propagations": c["quantum.propagations"],
        "quantum.strang_steps": c["quantum.strang_steps"],
        "quantum.ns_per_step_point": ratio(propagate_s * 1e9, c["quantum.step_points"]),
        "phasespace.husimi_s": husimi_s,
        "phasespace.overlap_points": c["phasespace.overlap_points"],
        "phasespace.ns_per_overlap_point_node": ratio(husimi_s * 1e9,
                                                      c["phasespace.overlap_point_nodes"]),
        "certify.self_s": self_s["certify.sweep"],
        "cli.self_s": self_s["cli.main"],
        "cli.report_bytes": report_bytes,
        "transport.plan_s": plan_s,
        "transport.lp_vars": c["transport.lp_vars"],
        "transport.us_per_lp_var": ratio(plan_s * 1e6, c["transport.lp_vars"]),
        "trace.unattributed_s": traced_s - tracer.root_time(),
        "trace.overhead_s": traced_s - untraced_s,
    }
    return {k: {"value": values[k], "unit": PER_LAYER_UNITS[k]} for k in PER_LAYER_UNITS}


def measure(args) -> dict:
    env = environment()
    log(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
        f"trace {args.trace}")
    log("env " + json.dumps(env, sort_keys=True))

    spawns = TRACE_SETUP_SPAWNS if args.trace else SETUP_SPAWNS
    setup = [spawn_setup(args.workload) for _ in range(spawns)]
    setup_s = statistics.median(wall for wall, _, _ in setup)
    log(f"setup_s {setup_s:.4f} s  (median of {spawns} spawns: "
        + ", ".join(f"{wall:.3f}" for wall, _, _ in setup) + ")")

    sys.path.insert(0, str(SRC))
    import obscert.cli  # noqa: F401  (set-up is measured above, not in run_s)

    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = Workload(args.workload, args.seed, work)
        attempted = failed = 0
        if args.trace:
            from tracer import Tracer
            # The first pass in a process pays one-off costs (lazy imports,
            # allocator growth), so the overhead compares the two later passes.
            tracer = Tracer(workload=args.workload, seed=args.seed)
            for traced in (None, tracer, None):
                elapsed, a, f = wl.run_pass(traced)
                attempted, failed = attempted + a, failed + f
                if traced is not None:
                    traced_s = elapsed
            untraced_s = elapsed
            _, _, importtime_stderr = spawn_setup(args.workload, importtime=True)
            metrics = per_layer_metrics(tracer, [ch for _, ch, _ in setup],
                                        importtime_stderr, traced_s, untraced_s,
                                        wl.report_bytes())
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_path, workload=args.workload, seed=args.seed, env=env,
                        run_s_untraced=untraced_s, run_s_traced=traced_s,
                        metrics={k: v["value"] for k, v in metrics.items()})
            log(f"trace written to {trace_path.relative_to(ROOT)}")
            if tracer.unwrapped:
                log("not wrapped, metrics read 0: " + ", ".join(tracer.unwrapped))
            for name, m in metrics.items():
                log(f"{name:<40}{m['value']:>16.6g} {m['unit']}")
        else:
            passes = []
            start = time.perf_counter()
            while True:
                elapsed, a, f = wl.run_pass()
                passes.append(elapsed)
                attempted, failed = attempted + a, failed + f
                # stop when another pass of median length would overrun
                if (len(passes) >= MIN_PASSES and time.perf_counter() - start
                        + statistics.median(passes) > args.seconds):
                    break
            run_s = statistics.median(passes)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            log(f"run_s {run_s:.4f} s  (median of {len(passes)} passes: "
                + ", ".join(f"{p:.3f}" for p in passes) + ")")
            log(f"peak_rss_mb {peak_rss_mb:.1f} MB")
            metrics = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb}
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        log(f"fail_ratio {ratio(failed, attempted):.6g} 1  ({failed} of {attempted} failed)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, then one table of the results."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            print(f"{name}: exit {res.returncode}", file=sys.stderr)
            return 1
        rows.append((name, json.loads(res.stdout.strip().splitlines()[-1])))
    for name, result in rows:
        fail_ratio = ratio(result["failed"], result["attempted"])
        log(f"== {name}: fail_ratio {fail_ratio:.6g} 1 "
            f"({result['failed']} of {result['attempted']})")
        for metric, m in result["metrics"].items():
            log(f"   {metric:<40}{m['value']:>16.6g} {m['unit']}")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "obscert" / "__init__.py").is_file():
        print(f"no obscert sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = measure(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
