"""CLI output against goldens recorded before the 3-vector polarization
refactor: headers, row counts and text cells must match exactly, numbers to
abs 1e-12 + rel 1e-9.  The outputs the CI smoke step diffs from the installed
package must also match byte for byte here, so a 12th-digit drift shows in a
local run.

To re-record one golden after an intended output change:
``PYTHONPATH=src python -m boostlink.cli <argv> > tests/goldens/<name>.csv``,
and list every moved cell in CHANGES.md.
"""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from boostlink.cli import main

GOLDENS = Path(__file__).parent / "goldens"

SCENARIOS = {
    "single_photon": ["single-photon", "--theta", "0.1:3:12", "--phi", "0:6:12"],
    "pair": ["pair"],
    "li_check": ["li-check"],
    "negativity": ["negativity"],
    "negativity_alpha_pi2_sigma2": ["negativity", "--alpha", "1.5707963267948966",
                                    "--sigma", "2", "--grid-theta", "32", "--grid-phi", "32"],
    "negativity_signed_beta_96": ["negativity", "--alpha", "0.9", "--sigma", "0.8", "--beta",
                                  "-0.4:0.4:5", "--grid-theta", "96", "--grid-phi", "96"],
    "purify_sigma1.5": ["purify", "--sigma", "1.5", "--grid-theta", "32", "--grid-phi", "32"],
    "purify_sigma3": ["purify", "--sigma", "3"],
    # the stalled sigma ~ 2 path: 40 rounds to the cap, F tending to 1/2
    "purify_sigma2": ["purify", "--sigma", "2", "--grid-theta", "32", "--grid-phi", "32"],
    "budget": ["budget"],
}


# goldens the CLI reproduces byte for byte; li-check's type1 row prints
# 7.07106781215e-06 against the golden's ...212 (3e-17 off, at the 12th
# digit), so only its other rows are held exactly
EXACT = [
    "budget",
    "negativity",
    "negativity_alpha_pi2_sigma2",
    "negativity_signed_beta_96",
    "purify_sigma1.5",
    "purify_sigma2",
    "purify_sigma3",
]


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def test_every_golden_has_a_scenario():
    assert sorted(p.stem for p in GOLDENS.glob("*.csv")) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_output_matches_golden(name, capsys):
    assert main(SCENARIOS[name]) == 0
    got = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    want = list(csv.reader(io.StringIO((GOLDENS / f"{name}.csv").read_text())))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for i, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(got_row) == len(want_row), f"row {i}"
        for column, g, w in zip(want[0], got_row, want_row):
            g_num, w_num = _number(g), _number(w)
            if w_num is None or g_num is None or not math.isfinite(w_num):
                assert g == w, f"row {i} {column}"
            else:
                assert abs(g_num - w_num) <= 1e-12 + 1e-9 * abs(w_num), f"row {i} {column}"


@pytest.mark.parametrize("name", EXACT)
def test_output_matches_golden_byte_for_byte(name, capsys):
    assert main(SCENARIOS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDENS / f"{name}.csv").read_bytes()


def test_li_check_phase_rows_match_golden_byte_for_byte(capsys):
    assert main(SCENARIOS["li_check"]) == 0

    def held(text):
        return [line for line in text.split("\n") if not line.startswith("type1,")]

    got = held(capsys.readouterr().out)
    want = held((GOLDENS / "li_check.csv").read_bytes().decode())
    assert [line.split(",")[0] for line in want] == ["protocol", "type2", "type3", ""]
    assert got == want


# columns of the error-law sweeps held byte for byte: the inputs and the
# closed-form approximation; eps_numeric and residual differ from these
# goldens at the 12th digit and keep the tolerance check above
EXACT_COLUMNS = {
    "single_photon": ("theta", "phi", "eps_approx"),
    "pair": ("theta", "eps_approx"),
}


@pytest.mark.parametrize("name", sorted(EXACT_COLUMNS))
def test_exact_columns_match_golden_byte_for_byte(name, capsys):
    assert main(SCENARIOS[name]) == 0

    def held(text):
        header, *rows = [line.split(",") for line in text.splitlines()]
        keep = [header.index(column) for column in EXACT_COLUMNS[name]]
        return [[row[i] for i in keep] for row in rows]

    got = held(capsys.readouterr().out)
    want = held((GOLDENS / f"{name}.csv").read_bytes().decode())
    assert len(want) > 1
    assert got == want


def _jsonl_line(header, cells):
    """The JSON line of one CSV row: number cells as printed, any other cell
    (a non-finite number included) a JSON string."""
    return "{" + ", ".join(
        f"{json.dumps(key)}: "
        + (cell if (n := _number(cell)) is not None and math.isfinite(n) else json.dumps(cell))
        for key, cell in zip(header, cells)
    ) + "}"


@pytest.mark.parametrize("name", EXACT + ["li_check"])
def test_jsonl_matches_golden_byte_for_byte(name, capsys):
    # li-check's type1 row is not held exactly (see EXACT)
    assert main([*SCENARIOS[name], "--format", "jsonl"]) == 0
    got = [line for line in capsys.readouterr().out.split("\n") if '"type1"' not in line]
    header, *rows = [line.split(",") for line in (GOLDENS / f"{name}.csv").read_text().splitlines()]
    want = [_jsonl_line(header, row) for row in rows if row[0] != "type1"] + [""]
    assert len(want) > 1
    assert got == want


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_jsonl_matches_csv(name, capsys):
    # each JSON line carries the CSV header's keys, and each value is the
    # CSV cell read as a number (non-finite ones stay strings) or a string
    assert main(SCENARIOS[name]) == 0
    header, *cells = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert main([*SCENARIOS[name], "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(cells)
    for line, row in zip(lines, cells):
        record = json.loads(line)
        assert list(record) == header
        for value, cell in zip(record.values(), row):
            number = _number(cell)
            assert value == (number if number is not None and math.isfinite(number) else cell)


@pytest.mark.parametrize(
    "name, config",
    [
        ("negativity_alpha_pi2_sigma2",
         {"alpha": 1.5707963267948966, "sigma": 2, "grid": {"n_theta": 32, "n_phi": 32}}),
        ("purify_sigma1.5", {"sigma": 1.5, "grid": {"n_theta": 32, "n_phi": 32}}),
    ],
)
def test_config_file_matches_flags(name, config, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    assert main(SCENARIOS[name]) == 0
    flagged = capsys.readouterr().out
    assert main([SCENARIOS[name][0], "--config", str(path)]) == 0
    assert capsys.readouterr().out == flagged
