"""Record reference rows for the shipped seeds into references.json.

    python3 perfbench/record_references.py

Run this only at a commit whose outputs are trusted: every later benchmark
run on a shipped seed compares its rows against what this writes.  Each op
must pass the identity checks before it is recorded.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads

SHIPPED_SEEDS = (1, 2, 3)
# ops recorded per seed: whole cycles, a few seconds of work per workload
RECORDED_OPS = {"scalar-sweeps": 6, "diffraction-fine": 6, "purify-link": 25}


def record(cli) -> dict:
    runs = []
    for workload, count in RECORDED_OPS.items():
        for seed in SHIPPED_SEEDS:
            ops = []
            for op in workloads.first_ops(workload, seed, count):
                _latency, code, stdout, stderr = run.execute(cli, op)
                problem = checks.check_op(op, code, stdout)
                if problem is not None:
                    raise SystemExit(f"{' '.join(op.argv)}: {problem}\n{stderr}")
                rows = checks.parse_csv(stdout)
                ops.append({
                    "argv": list(op.argv),
                    "header": list(rows[0]),
                    "rows": [list(row.values()) for row in rows],
                })
            runs.append({"workload": workload, "seed": seed, "ops": ops})
    return {"runs": runs}


def main() -> int:
    data = record(run.import_cli())
    checks.REFERENCES.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"wrote {checks.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
