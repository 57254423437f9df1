"""Closed-loop benchmark of boostlink CLI scenarios, run in-process.

    python3 perfbench/run.py --workload scalar-sweeps --seed 1 --seconds 30 --trace 0

One client issues one op at a time; an op is one ``boostlink.cli.main(argv)``
call with stdout captured in memory, and every op's output is checked
(see checks.py).  Run from the root of a checkout: the package is imported
from ``src/`` next to this directory.

``--trace 0`` reports the end-to-end metrics, timing each op as the fastest
of about fifteen passes spread over the run and scaling times to a reference
host speed (see hostspeed.py); ``--trace 1`` runs blocks of ops
untraced and then again traced, and reports per-layer self time and work
counts per op plus the tracing overhead.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is a JSON report with the environment record and
diagnostics.
"""

from __future__ import annotations

import os

# Pin the BLAS pool to one thread before numpy loads: the single-threaded
# baseline, and steadier than two threads on small matrices.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(BLAS_PIN)

import argparse
import contextlib
import io
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import environment
import hostspeed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PASSES = 15  # runs of each measured op in an untraced run; the fastest counts
SPEED_SLOTS = 10  # host speed probes per pass, evenly spread over its ops
TRACE_BLOCK_S = 0.5  # untraced work per block of a traced run
MAX_FAILURES_SHOWN = 5

SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import boostlink.cli; print(time.perf_counter() - t)"
)

# name -> unit; must match BENCHMARK.json
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "diffraction.kernel_ms": "ms",
    "diffraction.kernel_ns_per_node_eval": "ns",
    "diffraction.node_evals": "count",
    "diffraction.grid_ms": "ms",
    "diffraction.weights_ms": "ms",
    "quantum.validate_ms": "ms",
    "quantum.density_matrices": "count",
    "quantum.eigensolves": "count",
    "quantum.eigensolve_ms": "ms",
    "quantum.measures_ms": "ms",
    "lorentz.self_ms": "ms",
    "lorentz.calls": "count",
    "photon.self_ms": "ms",
    "photon.calls": "count",
    "states.self_ms": "ms",
    "states.calls": "count",
    "purification.round_ms": "ms",
    "purification.rounds": "count",
    "purification.capped_runs": "count",
    "purification.self_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.render_ms": "ms",
    "cli.self_ms": "ms",
    "cli.rows": "count",
    "trace.overhead_pct": "%",
}

# per-layer metric -> (span key, what to read); times and counts are per op
SPAN_METRICS = {
    "diffraction.kernel_ms": ("diffraction.kernel", "self"),
    "diffraction.grid_ms": ("diffraction.grid", "self"),
    "diffraction.weights_ms": ("diffraction.weights", "self"),
    "quantum.validate_ms": ("quantum.validate", "self"),
    "quantum.density_matrices": ("quantum.validate", "calls"),
    "quantum.eigensolve_ms": ("quantum.eigensolve", "self"),
    "quantum.eigensolves": ("quantum.eigensolve", "calls"),
    "quantum.measures_ms": ("quantum.measures", "self"),
    "lorentz.self_ms": ("lorentz", "self"),
    "lorentz.calls": ("lorentz", "calls"),
    "photon.self_ms": ("photon", "self"),
    "photon.calls": ("photon", "calls"),
    "states.self_ms": ("states", "self"),
    "states.calls": ("states", "calls"),
    "purification.round_ms": ("purification.round", "self"),
    "purification.rounds": ("purification.round", "calls"),
    "purification.self_ms": ("purification", "self"),
    "cli.parse_ms": ("cli.parse", "self"),
    "cli.render_ms": ("cli.render", "self"),
    "cli.self_ms": ("cli", "self"),
}
COUNT_METRICS = ("diffraction.node_evals", "purification.capped_runs", "cli.rows")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cli():
    """``boostlink.cli`` from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "boostlink" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no boostlink sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import boostlink.cli

    if Path(boostlink.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported boostlink from {boostlink.cli.__file__}, not {SRC}")
    return boostlink.cli


def probe_setup() -> float:
    """Seconds a fresh interpreter takes to import ``boostlink.cli``."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def execute(cli, op: workloads.Op) -> tuple[float, int, str, str]:
    """Latency (s), exit code, stdout and stderr of one ``cli.main(argv)`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught library error fails the op, not the run
            traceback.print_exc(file=err)
            code = 1
        latency = time.perf_counter() - start
    return latency, code, out.getvalue(), err.getvalue()


class Bench:
    """Executes and checks ops for one workload and seed, and tallies them."""

    def __init__(self, cli, workload: str, seed: int):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.references = checks.load_references().get(workload, {}).get(seed, [])
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, index: int, op: workloads.Op) -> float:
        """Run op number ``index`` of the stream, check it, return its latency."""
        latency, code, stdout, stderr = execute(self.cli, op)
        reference = None
        problem = None
        if index < len(self.references):
            ref_argv, reference = self.references[index]
            if tuple(ref_argv) != op.argv:
                problem = f"generated argv differs from the recorded one: {ref_argv}"
        problem = problem or checks.check_op(op, code, stdout, reference)
        self.attempted += 1
        if problem is not None:
            detail = stderr.strip().splitlines()[-1:] if stderr.strip() else []
            self.failures.append(f"op {index} {' '.join(op.argv)}: {problem} {detail}".rstrip())
        return latency


def _numbered(bench: Bench):
    return enumerate(workloads.generate(bench.workload, bench.seed))


def _warmed_stream(bench: Bench):
    """The numbered op stream, after one untimed (but checked) cycle of ops."""
    stream = _numbered(bench)
    cycle = len(workloads.WORKLOADS[bench.workload][0])
    for index, op in itertools.islice(stream, cycle):
        bench.run(index, op)
    return stream, cycle


def _scaled_setup() -> tuple[float, float]:
    """One ``probe_setup`` and the host slowdown measured around it."""
    before = hostspeed.probe()
    setup = probe_setup()
    return setup, min(before, hostspeed.probe()) / hostspeed.REFERENCE_S


def untraced_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """The first pass runs new ops, in whole cycles so the mix is exact, for
    1/PASSES of ``seconds``; later passes replay them in order until
    ``seconds`` of passes are spent.  An op's latency is its fastest pass:
    with short passes spread over the whole run, each op runs outside a
    short episode of outside load at least once.  Episodes that outlast the
    run are divided out with the host speed probe, which runs at fixed
    positions in every pass and is estimated the same way.  A fresh
    interpreter's import is timed before each pass (not counted in
    ``seconds``) and scaled by probes run just before and after it."""
    probe_setup()  # compiles bytecode on a fresh checkout; not counted
    hostspeed.probe()  # loads the eigensolver; not counted
    setups = [_scaled_setup()]
    stream, cycle = _warmed_stream(bench)
    pass_s = seconds / PASSES
    latencies, slot_at, slots = [], [], []
    start = time.perf_counter()
    while len(latencies) % cycle or not latencies or time.perf_counter() < start + pass_s:
        if time.perf_counter() >= start + len(slots) * pass_s / SPEED_SLOTS:
            slot_at.append(len(latencies))
            slots.append([hostspeed.probe()])
        latencies.append(bench.run(*next(stream)))
    spent = time.perf_counter() - start
    pass_ms = [1e3 * statistics.mean(latencies)]
    # replays regenerate their ops, so peak memory does not grow with the op count
    while spent < seconds:
        setups.append(_scaled_setup())
        replay = itertools.islice(_numbered(bench), cycle, cycle + len(latencies))
        this_pass = []
        slot = 0
        start = time.perf_counter()
        for k, (index, op) in enumerate(replay):
            if spent + time.perf_counter() - start >= seconds:
                break
            if slot < len(slot_at) and slot_at[slot] == k:
                slots[slot].append(hostspeed.probe())
                slot += 1
            this_pass.append(bench.run(index, op))
            latencies[k] = min(latencies[k], this_pass[-1])
        spent += time.perf_counter() - start
        if this_pass:
            pass_ms.append(1e3 * statistics.mean(this_pass))
    slowdown = hostspeed.slowdown(slots)
    raw_setup = [setup for setup, _ in setups]
    metrics = {
        "ops_per_s": slowdown * len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies) / slowdown,
        "setup_s": statistics.median(setup / factor for setup, factor in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    diagnostics = {
        "measured_ops": len(latencies),
        "passes": len(pass_ms),
        "warmup_ops": cycle,
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1] / slowdown,
        # the same figures unscaled, and the host slowdown they were divided by
        "host_slowdown": slowdown,
        "raw_ops_per_s": len(latencies) / sum(latencies),
        "raw_op_p50_ms": 1e3 * statistics.median(latencies),
        "raw_setup_s": statistics.median(raw_setup),
        "setup_samples_s": raw_setup,
        "setup_slowdowns": [factor for _, factor in setups],
        # mean op latency of each pass (the last may be cut short), unscaled:
        # slow passes show episodes of outside load
        "pass_mean_ms": pass_ms,
    }
    return metrics, diagnostics


def traced_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Blocks of whole op cycles, each run untraced and then again traced, so
    both passes of a block see the same machine state.  Per-layer numbers
    come from the traced passes; the overhead compares the two."""
    stream, cycle = _warmed_stream(bench)
    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        block = []
        block_end = time.perf_counter() + TRACE_BLOCK_S
        while time.perf_counter() < block_end or len(block) % cycle:
            block.append(next(stream))
            plain.append(bench.run(*block[-1]))
        with tracer:
            traced.extend(bench.run(index, op) for index, op in block)
    n = len(traced)
    per_op = {}
    for name, (key, field) in SPAN_METRICS.items():
        total = tracer.self_s[key] * 1e3 if field == "self" else tracer.calls[key]
        per_op[name] = total / n
    for name in COUNT_METRICS:
        per_op[name] = tracer.counts[name] / n
    node_evals = tracer.counts["diffraction.node_evals"]
    per_op["diffraction.kernel_ns_per_node_eval"] = (
        tracer.self_s["diffraction.kernel"] * 1e9 / node_evals if node_evals else 0.0
    )
    per_op["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(plain) - 1.0)
    metrics = {name: per_op[name] for name in PER_LAYER}
    diagnostics = {
        "traced_ops": n,
        "warmup_ops": cycle,
        "untraced_op_ms": 1e3 * sum(plain) / n,
        "traced_op_ms": 1e3 * sum(traced) / n,
        "attributed_self_ms": 1e3 * sum(tracer.self_s.values()) / n,
    }
    return metrics, diagnostics


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    bench = Bench(cli, args.workload, args.seed)
    if args.trace:
        metrics, diagnostics = traced_run(bench, args.seconds)
        units = PER_LAYER
    else:
        metrics, diagnostics = untraced_run(bench, args.seconds)
        units = END_TO_END
    failed = len(bench.failures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": workloads.WORKLOADS[args.workload][1],
        "closed_loop_clients": 1,
        "reference_ops": len(bench.references),
        "error_rate": failed / bench.attempted,
        "failures": bench.failures[:MAX_FAILURES_SHOWN],
        "environment": environment.record(BLAS_PIN),
        **diagnostics,
    }
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_rate = {report['error_rate']:.6g} ({failed} of {bench.attempted} ops failed)")
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
