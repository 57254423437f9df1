"""Output checks for one op, valid for any seed, plus comparison against
rows recorded for the shipped seeds.

Identities checked on every op:

* ``single-photon`` and ``pair``: |residual| <= beta^2 on every row (the
  small-velocity error law is exact to second order);
* ``li-check``: type2 and type3 report ``invariant`` and every protocol's
  source negativity is 1/2;
* ``negativity``: every value lies in [0, 1/2];
* ``purify``: rounds count up from 0, fidelity lies in [0, 1], success in
  (0, 1], and ``cumulative_photons`` equals 2^k A / prod(s) with the
  attenuation A recomputed from the link;
* ``budget``: the attenuation equals A recomputed from the link.

Purify rows are compared with a reference only on the rounds both outputs
print, so a stop rule that ends a stalled run early is not a mismatch.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import FINE_BETAS, PAIR_THETAS, SINGLE_PHOTON_GRID, Op

REFERENCES = Path(__file__).with_name("references.json")

RTOL = 1e-9  # relative tolerance against recorded rows
ATOL = 1e-12  # absolute floor, for values that are themselves near 0
PROB_TOL = 1e-12  # slack on probability bounds for rounding in the last digit

# link defaults the CLI fills in when only --link-length is given
WAVELENGTH = 800e-9
APERTURE_SOURCE = 1.0
APERTURE_RECEIVER = 1.0


def parse_csv(text: str) -> list[dict]:
    """CSV rows as dicts; numeric cells become floats, others stay strings."""
    lines = text.splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header has {len(header)}")
        row = {}
        for key, cell in zip(header, cells):
            try:
                row[key] = float(cell)
            except ValueError:
                row[key] = cell
        rows.append(row)
    return rows


def attenuation(length: float) -> float:
    ratio = length * WAVELENGTH / (APERTURE_SOURCE * APERTURE_RECEIVER)
    return ratio * ratio


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * abs(b)


def _error_law(op: Op, rows: list[dict], expected_rows: int) -> str | None:
    if len(rows) != expected_rows:
        return f"expected {expected_rows} rows, got {len(rows)}"
    bound = op.params["beta"] ** 2
    for row in rows:
        if not abs(row["residual"]) <= bound:
            return f"|residual| {abs(row['residual']):.3e} exceeds beta^2 = {bound:.3e}"
    return None


def _li_check(rows: list[dict]) -> str | None:
    if [row["protocol"] for row in rows] != ["type1", "type2", "type3"]:
        return "expected one row per protocol type1, type2, type3"
    for row in rows:
        if row["protocol"] != "type1" and row["verdict"] != "invariant":
            return f"{row['protocol']} verdict is {row['verdict']!r}, expected 'invariant'"
        if not _close(row["negativity_source"], 0.5):
            return f"{row['protocol']} source negativity {row['negativity_source']!r} != 0.5"
    return None


def _negativity(rows: list[dict]) -> str | None:
    if len(rows) != FINE_BETAS + 1:
        return f"expected {FINE_BETAS + 1} rows, got {len(rows)}"
    for row in rows:
        if not -PROB_TOL <= row["negativity"] <= 0.5 + PROB_TOL:
            return f"negativity {row['negativity']!r} outside [0, 0.5]"
    return None


def _purify(op: Op, rows: list[dict]) -> str | None:
    if not rows:
        return "no rounds printed"
    base = attenuation(op.params["link_length"])
    product = 1.0
    for k, row in enumerate(rows):
        if row["round"] != k:
            return f"round {row['round']!r} printed where round {k} was expected"
        if not -PROB_TOL <= row["fidelity"] <= 1.0 + PROB_TOL:
            return f"round {k}: fidelity {row['fidelity']!r} outside [0, 1]"
        if not 0.0 < row["success_prob"] <= 1.0 + PROB_TOL:
            return f"round {k}: success {row['success_prob']!r} outside (0, 1]"
        if k > 0:
            product *= row["success_prob"]
        expected = 2.0**k * base / product
        if not _close(row["cumulative_photons"], expected):
            return f"round {k}: cumulative_photons {row['cumulative_photons']!r} != 2^k A / prod(s) = {expected!r}"
    return None


def _budget(op: Op, rows: list[dict]) -> str | None:
    if len(rows) != 1:
        return f"expected 1 row, got {len(rows)}"
    expected = attenuation(op.params["link_length"])
    if not _close(rows[0]["attenuation"], expected):
        return f"attenuation {rows[0]['attenuation']!r} != {expected!r}"
    return None


def check_identities(op: Op, rows: list[dict]) -> str | None:
    """First identity the rows break, or None."""
    if op.kind == "single-photon":
        return _error_law(op, rows, SINGLE_PHOTON_GRID * SINGLE_PHOTON_GRID)
    if op.kind == "pair":
        return _error_law(op, rows, PAIR_THETAS)
    if op.kind == "li-check":
        return _li_check(rows)
    if op.kind == "negativity":
        return _negativity(rows)
    if op.kind == "purify":
        return _purify(op, rows)
    if op.kind == "budget":
        return _budget(op, rows)
    return f"no check for op kind {op.kind!r}"


def compare_rows(kind: str, rows: list[dict], reference: list[dict]) -> str | None:
    """First cell where ``rows`` departs from ``reference``, or None."""
    if kind == "purify":
        common = min(len(rows), len(reference))
        rows, reference = rows[:common], reference[:common]
    elif len(rows) != len(reference):
        return f"{len(rows)} rows where the reference has {len(reference)}"
    for i, (row, ref) in enumerate(zip(rows, reference)):
        if row.keys() != ref.keys():
            return f"row {i}: columns {list(row)} differ from reference {list(ref)}"
        for key, want in ref.items():
            got = row[key]
            if isinstance(want, float) and isinstance(got, float):
                if not _close(got, want):
                    return f"row {i} {key}: {got!r} differs from reference {want!r}"
            elif got != want:
                return f"row {i} {key}: {got!r} differs from reference {want!r}"
    return None


def check_op(op: Op, code: int, stdout: str, reference: list[dict] | None = None) -> str | None:
    """Why this op's result is wrong, or None when it passes every check."""
    if code != 0:
        return f"exit code {code}"
    try:
        rows = parse_csv(stdout)
    except ValueError as err:
        return f"unparsable output: {err}"
    problem = check_identities(op, rows)
    if problem is None and reference is not None:
        problem = compare_rows(op.kind, rows, reference)
    return problem


def load_references() -> dict:
    """{workload: {seed: [(argv, rows), ...]}} for the shipped seeds."""
    data = json.loads(REFERENCES.read_text())
    out: dict = {}
    for entry in data["runs"]:
        ops = [
            (tuple(op["argv"]), [dict(zip(op["header"], row)) for row in op["rows"]])
            for op in entry["ops"]
        ]
        out.setdefault(entry["workload"], {})[entry["seed"]] = ops
    return out
