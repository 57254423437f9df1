"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Generation must be deterministic per seed, the checker must reject a
perturbed row, and the metric names the runner prints must be the ones
BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import hostspeed
import run
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = checks.load_references()


def _csv(rows: list[dict]) -> str:
    header = ",".join(rows[0])
    return "\n".join([header] + [",".join(repr(v) if isinstance(v, float) else v for v in row.values()) for row in rows]) + "\n"


def _first_reference(workload: str, kind: str):
    seed, recorded = next(iter(REFERENCES[workload].items()))
    for index, (argv, rows) in enumerate(recorded):
        if argv[0] == kind:
            return workloads.first_ops(workload, seed, index + 1)[index], rows
    raise LookupError(kind)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(workload):
    first = workloads.first_ops(workload, 7, 25)
    assert first == workloads.first_ops(workload, 7, 25)
    assert [op.argv for op in first] != [op.argv for op in workloads.first_ops(workload, 8, 25)]


def test_generation_matches_recorded_argv():
    for workload, seeds in REFERENCES.items():
        for seed, recorded in seeds.items():
            ops = workloads.first_ops(workload, seed, len(recorded))
            assert [op.argv for op in ops] == [argv for argv, _rows in recorded]


def test_op_mix_is_fixed_by_workload():
    kinds = [op.kind for op in workloads.first_ops("purify-link", 3, 10)]
    assert kinds == ["purify"] * 4 + ["budget"] + ["purify"] * 4 + ["budget"]
    kinds = [op.kind for op in workloads.first_ops("scalar-sweeps", 3, 6)]
    assert kinds == ["single-photon", "pair", "li-check"] * 2


@pytest.mark.parametrize(
    "workload, kind, column",
    [
        ("scalar-sweeps", "single-photon", "eps_numeric"),
        ("scalar-sweeps", "pair", "eps_numeric"),
        ("scalar-sweeps", "li-check", "trace_distance_raw"),
        ("diffraction-fine", "negativity", "negativity"),
        ("purify-link", "purify", "fidelity"),
        ("purify-link", "budget", "length"),
    ],
)
def test_checker_accepts_recorded_rows_and_rejects_a_perturbed_row(workload, kind, column):
    op, rows = _first_reference(workload, kind)
    assert checks.check_op(op, 0, _csv(rows), rows) is None
    perturbed = [dict(row) for row in rows]
    value = perturbed[0][column]
    perturbed[0][column] = value + max(abs(value) * 1e-6, 1e-9)
    assert checks.check_op(op, 0, _csv(perturbed), rows) is not None


def test_identities_reject_bad_rows_without_a_reference():
    op, rows = _first_reference("purify-link", "purify")
    bad = [dict(row) for row in rows]
    bad[-1]["cumulative_photons"] *= 1.0 + 1e-6
    assert "cumulative_photons" in checks.check_op(op, 0, _csv(bad))

    op, rows = _first_reference("diffraction-fine", "negativity")
    bad = [dict(row) for row in rows]
    bad[0]["negativity"] = 0.5 + 1e-6
    assert "outside" in checks.check_op(op, 0, _csv(bad))

    op, rows = _first_reference("scalar-sweeps", "single-photon")
    bad = [dict(row) for row in rows]
    bad[3]["residual"] = 2.0 * op.params["beta"] ** 2
    assert "residual" in checks.check_op(op, 0, _csv(bad))

    op, rows = _first_reference("scalar-sweeps", "li-check")
    bad = [dict(row) for row in rows]
    bad[2]["verdict"] = "frame_dependent"
    assert "verdict" in checks.check_op(op, 0, _csv(bad))

    assert checks.check_op(op, 2, _csv(rows)) == "exit code 2"


def test_purify_rows_compare_only_on_common_rounds():
    op, rows = _first_reference("purify-link", "purify")
    assert len(rows) > 2
    assert checks.check_op(op, 0, _csv(rows[:2]), rows) is None


def test_tracer_restores_every_name():
    cli = run.import_cli()
    import boostlink.photon
    import numpy

    before = (cli.main, cli.diffracted_reduced_type1, boostlink.photon.boost_z,
              numpy.linalg.eigvalsh, cli.DensityMatrix.__init__)
    op = workloads.first_ops("purify-link", 1, 1)[0]
    with Tracer() as tracer:
        assert cli.diffracted_reduced_type1 is not before[1]
        latency, code, out, _err = run.execute(cli, op)
    assert code == 0
    after = (cli.main, cli.diffracted_reduced_type1, boostlink.photon.boost_z,
             numpy.linalg.eigvalsh, cli.DensityMatrix.__init__)
    assert after == before
    assert tracer.calls["cli.parse"] == 1
    assert tracer.calls["purification.round"] == len(checks.parse_csv(out)) - 1
    assert tracer.counts["diffraction.node_evals"] == 2 * workloads.PURIFY_GRID**2
    assert 0.0 < sum(tracer.self_s.values()) <= latency


def _declared():
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_host_speed_probe_runs_no_program_code():
    probe = "import sys, hostspeed; hostspeed.probe(); print(sorted(m for m in sys.modules if 'boostlink' in m))"
    done = subprocess.run([sys.executable, "-c", probe], cwd=BENCH_DIR, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_slowdown_takes_fastest_pass_per_slot_then_median():
    ref = hostspeed.REFERENCE_S
    slots = [[2 * ref, ref], [3 * ref, 1.5 * ref, 2 * ref], [4 * ref]]
    assert hostspeed.slowdown(slots) == pytest.approx(1.5)


def test_metric_names_match_benchmark_json():
    spec = _declared()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_every_declared_metric(trace, declared):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "purify-link",
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in _declared()[declared]}
