"""Regenerate bench/reference.json from the code in the current checkout.

    python3 bench/make_reference.py

Stores verdict, measured, lower_bound and eps_num of every certification
cell of the `soundness` and `grid2d` configs.  run.py fails a cell whose
verdict differs from this file or whose measured/lower_bound moved by more
than the stored eps_num.  Regenerate only when a change is meant to alter
certificates, and list the differences in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

FIELDS = ("scenario", "hbar", "delta", "verdict", "measured", "lower_bound", "eps_num")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    reference = {}
    work = run.OUT / "reference"
    try:
        for workload in run.CERT_WORKLOADS:
            for path in run.config_paths(workload):
                out = work / workload / path.stem
                code = run.run_certify(path, out)
                if code != 0:
                    print(f"{workload}/{path.stem}: exit {code}", file=sys.stderr)
                    return 1
                reference[f"{workload}/{path.stem}"] = [
                    {k: r[k] for k in FIELDS}
                    for _, r in sorted(run.report_cells(out).items())]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE.relative_to(run.ROOT)}: "
          f"{sum(map(len, reference.values()))} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
