import json
import math

import pytest

from boostlink.cli import (
    Scenario,
    SweepSpec,
    load_config,
    main,
    render_rows,
    run_budget,
    run_li_check,
    run_negativity_sweep,
    run_pair_sweep,
    run_purification,
    run_single_photon_sweep,
)
from boostlink.errors import ConfigError
from boostlink.lorentz import SphericalDirection
from boostlink.quantum import DensityMatrix, trace_distance
from boostlink.photon import boost_photon, linear_polarization, make_photon
from boostlink.states import boost_type1, make_type1, reduced_polarization


class TestSweepSpec:
    def test_linear_values(self):
        assert SweepSpec(0.0, 1.0, 5).values() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_log_values(self):
        values = SweepSpec(1e-6, 1e-4, 3, "log").values()
        assert values == pytest.approx([1e-6, 1e-5, 1e-4], rel=1e-12)

    def test_rejects_malformed(self):
        with pytest.raises(ConfigError):
            SweepSpec(0.0, 1.0, 1)
        with pytest.raises(ConfigError):
            SweepSpec(1.0, 1.0, 5)
        with pytest.raises(ConfigError):
            SweepSpec(0.0, 1.0, 5, "log")


class TestConfigLoading:
    def test_round_trip(self, tmp_path):
        config = {
            "beta": {"start": 1e-6, "stop": 1e-4, "count": 3, "scale": "log"},
            "sigma": 0.5,
            "grid": {"n_theta": 32, "n_phi": 16},
            "link": {
                "length": 13000e3,
                "wavelength": 800e-9,
                "aperture_source": 1.0,
                "aperture_receiver": 1.0,
            },
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        scenario = load_config(str(path), Scenario())
        assert isinstance(scenario.beta, SweepSpec)
        assert scenario.beta.scale == "log"
        assert scenario.sigma == 0.5
        assert (scenario.grid_theta, scenario.grid_phi) == (32, 16)
        assert scenario.link.length == pytest.approx(13000e3)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"betta": 0.1}))
        with pytest.raises(ConfigError, match="betta"):
            load_config(str(path), Scenario())

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"link": {"length": 1.0, "wavelngth": 2.0}}))
        with pytest.raises(ConfigError, match="link"):
            load_config(str(path), Scenario())

    def test_malformed_sweep_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"beta": {"start": 0.0, "stop": 0.0, "count": 5}}))
        with pytest.raises(ConfigError):
            load_config(str(path), Scenario())


class TestRowReDerivability:
    def test_single_photon_rows_match_direct_calls(self):
        scenario = Scenario(beta=1e-5, theta=0.7, phi=0.3)
        row = run_single_photon_sweep(scenario)[0]
        direction = SphericalDirection(0.7, 0.3)
        rest = linear_polarization(direction, "h").eps
        moving = boost_photon(make_photon(direction, "h"), 1e-5).polarization.eps
        expected = trace_distance(
            DensityMatrix.from_pure(rest, (3,)), DensityMatrix.from_pure(moving, (3,))
        )
        assert row["eps_numeric"] == expected
        assert row["eps_approx"] == abs(1e-5 * math.sin(0.7) * math.cos(0.3))

    def test_pair_rows_match_direct_calls(self):
        scenario = Scenario(beta=1e-4, theta=1.1, phi=0.0)
        row = run_pair_sweep(scenario)[0]
        dir_a = SphericalDirection(1.1, 0.0)
        state = make_type1(dir_a, dir_a.antipode())
        expected = trace_distance(
            reduced_polarization(state),
            reduced_polarization(boost_type1(state, 1e-4)),
        )
        assert row["eps_numeric"] == expected


class TestSweepTables:
    def test_negativity_includes_baseline(self):
        scenario = Scenario(
            beta=SweepSpec(0.1, 0.3, 2), alpha=0.0, sigma=1.0, grid_theta=32, grid_phi=32
        )
        rows = run_negativity_sweep(scenario)
        assert rows[0]["beta"] == 0.0
        assert [r["beta"] for r in rows] == [0.0, 0.1, 0.3]

    def test_purification_budget_arithmetic(self):
        scenario = Scenario(beta=0.0, alpha=0.0, sigma=0.5, target_purity=0.99)
        rows, succeeded = run_purification(scenario)
        assert succeeded
        assert rows[0]["cumulative_photons"] == pytest.approx(100.0)
        for earlier, later in zip(rows, rows[1:]):
            assert later["cumulative_photons"] > earlier["cumulative_photons"]
            assert later["fidelity"] > earlier["fidelity"]

    def test_budget_row(self):
        rows = run_budget(Scenario())
        assert rows[0]["attenuation"] == pytest.approx(108.16, rel=1e-12)

    def test_li_check_verdicts(self):
        rows = run_li_check(Scenario(beta=1e-5, theta=math.pi / 4, phi=0.0))
        by_protocol = {r["protocol"]: r for r in rows}
        assert by_protocol["type1"]["verdict"] == "frame_dependent"
        assert by_protocol["type1"]["trace_distance_raw"] == pytest.approx(
            1e-5 * math.sin(math.pi / 4), rel=1e-3
        )
        for name in ("type2", "type3"):
            assert by_protocol[name]["verdict"] == "invariant"
            assert by_protocol[name]["trace_distance_raw"] <= 1e-12
            assert by_protocol[name]["negativity_source"] == pytest.approx(0.5, abs=1e-10)
            assert by_protocol[name]["negativity_boosted"] == pytest.approx(0.5, abs=1e-10)


class TestRendering:
    def test_csv_format(self):
        text = render_rows([{"a": 0.5, "b": 2}], "csv")
        assert text == "a,b\n0.5,2\n"

    def test_jsonl_format_parses_back(self):
        text = render_rows([{"a": 0.5, "name": "x", "flag": True}], "jsonl")
        parsed = json.loads(text.splitlines()[0])
        assert parsed == {"a": 0.5, "name": "x", "flag": True}

    def test_twelve_significant_digits(self):
        text = render_rows([{"x": 1.0 / 3.0}], "csv")
        assert text.splitlines()[1] == "0.333333333333"


class TestMainEntry:
    def test_budget_stdout(self, capsys):
        assert main(["budget"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == (
            "length,wavelength,aperture_source,aperture_receiver,attenuation"
        )
        assert "108.16" in out

    def test_byte_identical_runs(self, capsys):
        argv = ["negativity", "--alpha", "0", "--beta", "0:0.2:3",
                "--sigma", "1", "--grid-theta", "32", "--grid-phi", "32"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        assert main(["budget", "--out", str(target)]) == 0
        assert "attenuation" in target.read_text()
        assert capsys.readouterr().out == ""

    def test_flag_overrides_config(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"beta": 0.3, "theta": 0.5, "phi": 0.0}))
        assert main(["li-check", "--config", str(path), "--beta", "1e-5"]) == 0
        out = capsys.readouterr().out
        row = out.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(1e-5 * math.sin(0.5), rel=1e-3)

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nonsense": 1}))
        assert main(["pair", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--seed", "1"], ["--protocol", "type1"], ["--compensate-phases"]]
    )
    def test_removed_flag_exits_2(self, flags, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["li-check"] + flags)
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config", [{"seed": 0}, {"protocol": "type1"}, {"compensate_phases": True}]
    )
    def test_removed_config_key_exits_2(self, config, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert main(["li-check", "--config", str(path)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            {"grid": {"n_theta": math.nan}},
            {"grid": {"n_phi": math.inf}},
            {"grid": {"n_theta": "abc"}},
            {"grid": {"n_theta": 2.7}},
            {"beta": {"start": 0, "stop": 0.5, "count": math.nan}},
            {"beta": {"start": 0, "stop": 0.5, "count": math.inf}},
            {"beta": {"start": 0, "stop": 0.5, "count": 2.5}},
            {"beta": {"start": "x", "stop": 0.5, "count": 3}},
            {"beta": 10**400},
            {"sigma": [1.0]},
            {"link": {"length": "x", "wavelength": 8e-7,
                      "aperture_source": 1.0, "aperture_receiver": 1.0}},
        ],
    )
    def test_unconvertible_config_value_exits_2(self, config, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert main(["negativity", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""

    def test_sweep_where_scalar_needed_exits_2(self, capsys):
        assert main(["li-check", "--theta", "0.1:1.0:5"]) == 2
        assert "scalar" in capsys.readouterr().err

    def test_bad_sigma_exits_2(self, capsys):
        assert main(["negativity", "--sigma", "-1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["negativity", "--sigma", "nan"],
            ["negativity", "--sigma", "inf"],
            ["negativity", "--alpha", "nan"],
            ["negativity", "--beta", "nan:0.5:3"],
            ["budget", "--link-length", "inf"],
            ["budget", "--link-wavelength", "nan"],
        ],
    )
    def test_non_finite_input_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""

    def test_zero_negativity_prints_without_sign(self, capsys):
        assert main(["negativity", "--grid-theta", "8", "--grid-phi", "8", "--sigma", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert all(not row.split(",")[2].startswith("-") for row in rows)

    def test_strict_purify_failure_exits_4(self, capsys):
        argv = ["purify", "--sigma", "2.0", "--grid-theta", "32", "--grid-phi", "32",
                "--target-purity", "0.999", "--strict"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert "round,fidelity" in captured.out  # rows still emitted

    def test_non_strict_purify_failure_exits_0(self, capsys):
        argv = ["purify", "--sigma", "2.0", "--grid-theta", "32", "--grid-phi", "32",
                "--target-purity", "0.999"]
        assert main(argv) == 0
        capsys.readouterr()

    def test_jsonl_flag(self, capsys):
        assert main(["budget", "--format", "jsonl"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert json.loads(line)["attenuation"] == pytest.approx(108.16)

    def test_numerical_consistency_error_exits_3(self, capsys, monkeypatch):
        from boostlink import cli
        from boostlink.errors import NumericalConsistencyError

        def broken(scenario):
            raise NumericalConsistencyError("stabilizer residual too large")

        monkeypatch.setattr(cli, "run_li_check", broken)
        assert cli.main(["li-check"]) == 3
        assert "numerical consistency" in capsys.readouterr().err

    def test_degenerate_protocol_error_exits_3(self, capsys, monkeypatch):
        from boostlink import purification
        from boostlink.errors import DegenerateProtocolError

        def degenerate(rho):
            raise DegenerateProtocolError("coincidence probability 0.000e+00 is vanishingly small")

        monkeypatch.setattr(purification, "purify_round", degenerate)
        assert main(["purify", "--grid-theta", "8", "--grid-phi", "8"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("boostlink: ")
        assert "vanishingly small" in err
