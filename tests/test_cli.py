import json
import math
from fractions import Fraction

import numpy as np
import pytest

from boostlink import cli, diffraction, states
from boostlink.cli import (
    MAX_GRID_NODES,
    MAX_SWEEP_POINTS,
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
from boostlink.diffraction import diffracted_reduced_type1, make_grid
from boostlink.errors import ConfigError, DomainError
from boostlink.lorentz import aberrate, boost_z, linear_basis, polar_angles, unit_vectors, wigner_phases
from boostlink.purification import photon_budget, photons_required
from boostlink.quantum import DensityMatrix, pure_negativities, pure_trace_distances
from boostlink.states import pair_amplitudes


def back_to_back(theta, phi):
    """Unit vectors of arm A along (theta, phi) and of arm B at its polar
    antipode (pi - theta, phi + pi)."""
    theta, phi = polar_angles(theta, phi)
    return unit_vectors(theta, phi), unit_vectors(*polar_angles(math.pi - theta, phi + math.pi))


def point_distance(psi_a, psi_b):
    """The trace distance between two pure states, as a stack of one row."""
    return float(pure_trace_distances(psi_a[None], psi_b[None])[0])


def photon_distance(theta, phi, beta):
    """Trace distance between the h polarization of a photon along
    (theta, phi) and of the same photon boosted by ``beta``, point by point
    through the sweep's kernel."""
    rest = unit_vectors(*polar_angles(theta, phi))
    moved = aberrate(rest[None], beta)[0]

    def h(n):
        return linear_basis(*n[:, None])[:3, 0]

    return point_distance(h(rest), h(moved))


def pair_distance(theta, phi, beta):
    """Trace distance across frames of the type-I pair with arm A along
    (theta, phi) and arm B at its polar antipode, point by point through the
    sweep's kernel."""

    def amplitudes(a, b):
        return pair_amplitudes(a[None], b[None])[0]

    n_a, n_b = back_to_back(theta, phi)
    moved_a, moved_b = aberrate(np.stack([n_a, n_b]), beta)
    return point_distance(amplitudes(n_a, n_b), amplitudes(moved_a, moved_b))


class TestSweepSpec:
    def test_linear_values(self):
        assert SweepSpec(0.0, 1.0, 5).values() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_log_values(self):
        values = SweepSpec(1e-6, 1e-4, 3, "log").values()
        assert values == pytest.approx([1e-6, 1e-5, 1e-4], rel=1e-12)

    def test_log_sweep_to_largest_float(self):
        # the last exp rounds past the largest float; nearby sweeps that stay
        # in range keep their values
        top = SweepSpec(1e-300, 1.7976931348623157e308, 7, "log")
        with pytest.raises(ConfigError, match="overflows"):
            top.values()
        a, b = math.log(1e-300), math.log(1e308)
        assert SweepSpec(1e-300, 1e308, 7, "log").values() == [
            math.exp(a + (b - a) * i / 6) for i in range(7)
        ]

    def test_log_sweep_overflow_exits_2(self, capsys):
        argv = ["negativity", "--beta", "1e-300:1.7976931348623157e308:7:log",
                "--grid-theta", "4", "--grid-phi", "4"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows" in captured.err

    def test_rejects_malformed(self):
        with pytest.raises(ConfigError):
            SweepSpec(0.0, 1.0, 1)
        with pytest.raises(ConfigError):
            SweepSpec(1.0, 1.0, 5)
        with pytest.raises(ConfigError):
            SweepSpec(0.0, 1.0, 5, "log")

    def test_count_ceiling(self):
        assert len(SweepSpec(0.0, 1.0, MAX_SWEEP_POINTS).values()) == MAX_SWEEP_POINTS
        with pytest.raises(ConfigError, match="count"):
            SweepSpec(0.0, 1.0, MAX_SWEEP_POINTS + 1)

    @staticmethod
    def _forbid_values(monkeypatch):
        def unreachable(self):
            raise AssertionError("values built for an oversized sweep")

        monkeypatch.setattr(SweepSpec, "values", unreachable)

    @pytest.mark.parametrize("count", [MAX_SWEEP_POINTS + 1, 10**9])
    def test_oversized_flag_exits_2_before_building(self, count, monkeypatch, capsys):
        self._forbid_values(monkeypatch)
        assert main(["negativity", "--beta", f"0:0.5:{count}"]) == 2
        assert "sweep count" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [MAX_SWEEP_POINTS + 1, 10**9])
    def test_oversized_config_exits_2_before_building(self, count, tmp_path, monkeypatch, capsys):
        self._forbid_values(monkeypatch)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"theta": {"start": 0.1, "stop": 1.0, "count": count}}))
        assert main(["pair", "--config", str(path)]) == 2
        assert "sweep count" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv",
        [
            ["single-photon", "--theta", "0.1:3:10000", "--phi", "0:6:10000"],
            ["negativity", "--alpha", "0:1:200", "--beta", "0:0.5:100"],
        ],
    )
    def test_oversized_product_exits_2_before_building(self, argv, monkeypatch, capsys):
        self._forbid_values(monkeypatch)
        assert main(argv) == 2
        assert "product of the sweep counts" in capsys.readouterr().err

    def test_product_at_ceiling_accepted(self):
        scenario = Scenario(theta=SweepSpec(0.1, 3.0, 100), phi=SweepSpec(0.0, 6.0, 100))
        scenario.validate()


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

    def test_unknown_sweep_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"beta": {"start": 0.0, "stop": 1.0, "count": 5, "step": 1}}))
        with pytest.raises(ConfigError, match=r"beta: unknown sweep keys \['step'\]"):
            load_config(str(path), Scenario())

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"beta": 0.1\xff}')
        assert main(["li-check", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config file is not valid JSON" in captured.err


class TestUnsetSettings:
    """A runner that reads a setting its scenario leaves unset names it; the
    defaults live in the command table, not in the runners."""

    READS = {
        run_single_photon_sweep: ("beta", "theta", "phi"),
        run_pair_sweep: ("beta", "theta", "phi"),
        run_negativity_sweep: ("beta", "alpha"),
        run_purification: ("beta", "alpha"),
        run_li_check: ("beta", "theta", "phi"),
    }

    @pytest.mark.parametrize(
        "run, name", [(run, name) for run, names in READS.items() for name in names]
    )
    def test_unset_setting_is_named(self, run, name):
        settings = {key: 0.1 for key in self.READS[run] if key != name}
        scenario = Scenario(**settings, grid_theta=4, grid_phi=4)
        with pytest.raises(ConfigError, match=f"^{name}: "):
            run(scenario)


class TestRowReDerivability:
    def test_single_photon_rows_match_direct_calls(self):
        scenario = Scenario(beta=1e-5, theta=0.7, phi=0.3)
        table = run_single_photon_sweep(scenario)
        assert table["eps_numeric"] == [photon_distance(0.7, 0.3, 1e-5)]
        assert table["eps_approx"] == [abs(1e-5 * math.sin(0.7) * math.cos(0.3))]

    def test_pair_rows_match_direct_calls(self):
        scenario = Scenario(beta=1e-4, theta=1.1, phi=0.0)
        table = run_pair_sweep(scenario)
        assert table["eps_numeric"] == [pair_distance(1.1, 0.0, 1e-4)]
        assert table["eps_approx"] == [abs(1e-4 * math.sin(1.1))]


def _scale_one_h(basis):
    """Corrupt the last h vector of a stacked (h; v) basis to norm 1.001."""
    basis = basis.copy()
    basis[:3, -1] *= 1.001
    return basis


def _tilt_polar(n):
    """Move every aberrated direction in the (N, 3) rows ``n`` 1e-6 rad
    further from +z."""
    x, y, z = n.T
    return unit_vectors(np.arctan2(np.hypot(x, y), z) + 1e-6, np.arctan2(y, x))


def _stretch_one_row(psi):
    """Scale the second amplitude row of a stack to norm 1 + 1e-6."""
    psi = psi.copy()
    psi[1] *= 1.0 + 1e-6
    return psi


# (eps_numeric, residual) printed at the poles with --beta 1e-3.  The unit
# vector at theta = float(pi) keeps sin(pi) = 1.2e-16 of transverse offset,
# so the backward-pole rows print the error of that tiny offset: single-photon
# matches eps_approx = 1e-3 sin(pi) to 6e-23.
POLE_ROWS = {
    ("single-photon", "0"): ("0", "0"),
    ("single-photon", "3.14159265359"): ("1.22403508761e-19", "-6.11711534773e-23"),
    ("pair", "0"): ("8.65523510861e-20", "8.65523510861e-20"),
    ("pair", "3.14159265359"): ("8.65523510861e-20", "-3.59123288286e-20"),
}


class TestBatchedSweeps:
    """The error-law sweeps make one array pass over all of their points; every
    row must still equal the point-by-point computation, poles included.  The
    closed form takes numpy's sin and cos where the point-by-point rows took
    ``math``'s, so it is held to a few ulps of them (the goldens hold its
    printed bytes)."""

    def test_single_photon_rows_match_object_path(self):
        beta = 0.3
        scenario = Scenario(
            beta=beta, theta=SweepSpec(0.0, math.pi, 5), phi=SweepSpec(0.0, 2 * math.pi, 5)
        )
        table = run_single_photon_sweep(scenario)
        assert len(table["eps_numeric"]) == 25
        for theta, phi, numeric, approx, residual in zip(*table.values(), strict=True):
            assert numeric == photon_distance(theta, phi, beta)
            expected = abs(beta * math.sin(theta) * math.cos(phi))
            assert approx == pytest.approx(expected, rel=1e-15, abs=0)
            assert residual == numeric - approx

    def test_pair_rows_match_object_path(self):
        beta, phi = 0.3, 2.5
        table = run_pair_sweep(Scenario(beta=beta, theta=SweepSpec(0.0, math.pi, 7), phi=phi))
        assert len(table["eps_numeric"]) == 7
        for theta, numeric, approx, residual in zip(*table.values(), strict=True):
            assert numeric == pair_distance(theta, phi, beta)
            assert approx == pytest.approx(abs(beta * math.sin(theta)), rel=1e-15, abs=0)
            assert residual == numeric - approx

    @pytest.mark.parametrize(
        "argv",
        [
            ["single-photon", "--theta", f"0:{math.pi!r}:3", "--phi", f"0:{2 * math.pi!r}:3"],
            ["pair", "--theta", f"0:{math.pi!r}:3", "--phi", repr(2 * math.pi)],
        ],
    )
    def test_pole_rows_print_zero_error(self, argv, capsys):
        assert main(argv + ["--beta", "1e-3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        poles = [dict(zip(header, line.split(","))) for line in lines[1:]]
        poles = [row for row in poles if row["theta"] in ("0", "3.14159265359")]
        assert len(poles) == (6 if argv[0] == "single-photon" else 2)
        for row in poles:
            assert (row["eps_numeric"], row["residual"]) == POLE_ROWS[argv[0], row["theta"]]

    @pytest.mark.parametrize(
        "run, module, name, damage, message",
        [
            (run_single_photon_sweep, cli, "linear_basis", _scale_one_h, "unit norm"),
            (run_single_photon_sweep, cli, "pure_trace_distances", _stretch_one_row, "normalized"),
            (run_single_photon_sweep, cli, "aberrate", _tilt_polar, "disagree"),
            (run_pair_sweep, states, "linear_basis", _scale_one_h, "unit norm"),
            (run_pair_sweep, cli, "pure_trace_distances", _stretch_one_row, "normalized"),
        ],
    )
    def test_every_point_is_checked(self, run, module, name, damage, message, monkeypatch):
        # one corrupted entry in a stack fails the whole sweep: the rows a
        # distance takes are damaged on the way in, other stacks on the way out
        original = getattr(module, name)
        if name == "pure_trace_distances":
            monkeypatch.setattr(module, name, lambda a, b: original(damage(a), b))
        else:
            monkeypatch.setattr(module, name, lambda *args: damage(original(*args)))
        phi = SweepSpec(0.5, 6.0, 3) if run is run_single_photon_sweep else 0.5
        with pytest.raises(DomainError, match=message):
            run(Scenario(beta=1e-4, theta=SweepSpec(0.1, 3.0, 3), phi=phi))

    def test_out_of_range_theta_rejected_as_per_point(self):
        with pytest.raises(DomainError) as per_point:
            polar_angles(4.0, 0.0)
        for run in (run_single_photon_sweep, run_pair_sweep):
            with pytest.raises(DomainError) as batched:
                run(Scenario(beta=1e-5, theta=SweepSpec(0.0, 4.0, 3), phi=0.0))
            assert str(batched.value) == str(per_point.value)

    def test_superluminal_beta_rejected(self):
        for run in (run_single_photon_sweep, run_pair_sweep):
            with pytest.raises(DomainError, match="beta"):
                run(Scenario(beta=1.0, theta=SweepSpec(0.1, 3.0, 3), phi=0.0))

    @pytest.mark.parametrize(
        "argv",
        [
            ["pair", "--theta", "0.001:3.14:200"],
            ["single-photon", "--theta", "0.001:3.14:50"],
            ["li-check", "--theta", "3.14"],
            ["li-check", "--theta", "0.001"],
        ],
    )
    @pytest.mark.parametrize("beta", ["-0.9999", "0.9999", "-0.999999", "0.999999"])
    def test_near_pole_boosts_accepted(self, argv, beta, capsys):
        # aberrate renormalizes the directions: the formula alone leaves a
        # norm defect of 1.1e-12 at beta = -0.9999 near theta = pi
        assert main(argv + ["--beta", beta]) == 0
        assert capsys.readouterr().err == ""


def exact_distances(psi_a, psi_b):
    """Trace distances of the pure row pairs, with 1 - (a.b)^2 / ((a.a)(b.b))
    taken in exact rationals from the float rows: only the final square root
    rounds."""

    def dot(x, y):
        return sum(p * q for p, q in zip(x, y))

    distances = []
    for row_a, row_b in zip(psi_a.tolist(), psi_b.tolist()):
        a, b = [Fraction(x) for x in row_a], [Fraction(x) for x in row_b]
        distances.append(math.sqrt(1 - dot(a, b) ** 2 / (dot(a, a) * dot(b, b))))
    return distances


class TestPairDistanceAccuracy:
    """The pair sweep's distances against an exact reference on its own
    amplitude rows, at the small boosts of the paper's error law, where the
    eigensolve of the projector difference was off by 2.2e-10 and 2.7e-11."""

    @pytest.mark.parametrize("beta, bound", [(1e-6, 2e-10), (1e-5, 2e-11)])
    def test_relative_error(self, beta, bound):
        phi, thetas = 0.7, SweepSpec(0.1, math.pi - 0.1, 200)
        table = run_pair_sweep(Scenario(beta=beta, theta=thetas, phi=phi))
        values = thetas.values()
        psi = cli._type1_amplitudes(*cli._back_to_back(values, [phi] * len(values)), beta)
        distances = zip(table["theta"], table["eps_numeric"], exact_distances(*psi), strict=True)
        for theta, numeric, exact in distances:
            assert abs(numeric - exact) <= bound * exact, theta


class TestTypeIAcrossCommands:
    """li-check's type-I row and the pair sweep compute the pair through the
    same kernel."""

    @staticmethod
    def _rows(argv, capsys):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    @pytest.mark.parametrize(
        "beta, theta, phi",
        [("1e-5", "0.7853981633974483", "0"), ("0.3", "1.0", "0.4"), ("-0.9", "0", "0")],
    )
    def test_li_check_distance_equals_pair_row(self, beta, theta, phi, capsys):
        geometry = ["--beta", beta, "--theta", theta, "--phi", phi]
        type1 = self._rows(["li-check", *geometry], capsys)[0]
        (pair,) = self._rows(["pair", *geometry], capsys)
        assert type1["protocol"] == "type1"
        assert type1["trace_distance_raw"] == pair["eps_numeric"]

    def test_li_check_checks_the_pair_basis(self, monkeypatch, capsys):
        original = states.linear_basis
        monkeypatch.setattr(states, "linear_basis", lambda *args: _scale_one_h(original(*args)))
        assert main(["li-check"]) == 2
        assert "unit norm" in capsys.readouterr().err


class TestOnAxisAzimuth:
    """A momentum on +z has x = 0 * cos(phi), which is -0.0 when cos(phi) < 0;
    its azimuth must still read 0, or the z-boost's Wigner phase reads -pi."""

    @pytest.mark.parametrize(
        "theta, phi",
        [("0", "2"), ("3.141592653589793", "5")],  # arm A, then arm B, on +z
    )
    def test_type2_raw_distance_vanishes(self, theta, phi, capsys):
        argv = ["li-check", "--theta", theta, "--phi", phi, "--beta", "0.5"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        type2 = next(row for row in rows if row["protocol"] == "type2")
        assert float(type2["trace_distance_raw"]) <= 1e-12


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def reference_rows(theta, phi, beta):
    """li-check's rows as the per-protocol object layer built them, one
    state vector at a time: the type-I pair along both arms, at rest and
    aberrated, with nothing to compensate; for types II and III the Wigner
    phase of each arm, helicity +1, and the occupation-basis layout (type II
    on indices 2 and 1, type III on 0 and 3).  Each distance is one pure
    pair's, and each negativity a one-row ``pure_negativities`` call's."""
    n_a, n_b = back_to_back(theta, phi)
    theta_a, theta_b = wigner_phases(boost_z(beta), np.stack([n_a, n_b]))

    def type1(a, b):
        return pair_amplitudes(a[None], b[None])[0]

    def type2(phi_a, phi_b):
        psi = np.zeros(4, dtype=complex)
        psi[2] = np.exp(1j * phi_a) * _INV_SQRT2
        psi[1] = -np.exp(1j * phi_b) * _INV_SQRT2
        return psi

    def type3(chi):
        psi = np.zeros(4, dtype=complex)
        psi[0] = np.exp(1j * chi) * _INV_SQRT2
        psi[3] = -np.exp(1j * chi) * _INV_SQRT2
        return psi

    boosted2 = type2(0.0 - theta_a, 0.0 - theta_b)
    boosted3 = type3(0.0 - (theta_a + theta_b))
    source1 = type1(n_a, n_b)
    boosted1 = type1(*aberrate(np.stack([n_a, n_b]), beta))
    rows = []
    for name, dims, source, boosted, compensated in (
        ("type1", (3, 3), source1, boosted1, (source1, boosted1)),
        ("type2", (2, 2), type2(0.0, 0.0), boosted2, (type2(0.0, 0.0), type2(0.0, 0.0))),
        ("type3", (2, 2), type3(0.0), boosted3, (type3(0.0), type3(0.0))),
    ):
        distance = point_distance(*compensated)
        rows.append(
            {
                "protocol": name,
                "trace_distance_raw": point_distance(source, boosted),
                "trace_distance_compensated": distance,
                "negativity_source": pure_negativities(source[None], dims)[0],
                "negativity_boosted": pure_negativities(boosted[None], dims)[0],
                "verdict": "invariant" if distance <= cli.LI_TOLERANCE else "frame_dependent",
            }
        )
    return rows


class TestFockRows:
    """li-check's rows equal the per-state reference bitwise; the type
    II/III rows come from one Wigner phase per arm."""

    @pytest.mark.parametrize(
        "beta, theta, phi",
        [
            (1e-5, math.pi / 4, 0.0),  # the default geometry
            (0.5, 0.0, 2.0),  # arm A on +z
            (0.5, math.pi, 5.0),  # arm B on +z
            (0.9, 1.2, 4.0),
            (-0.4, 0.3, 1.0),
            (-0.9, 0.0, 0.0),
        ],
    )
    def test_rows_equal_object_layer_reference(self, beta, theta, phi):
        table = run_li_check(Scenario(beta=beta, theta=theta, phi=phi))
        assert table["protocol"] == ["type1", "type2", "type3"]
        reference = reference_rows(theta, phi, beta)
        assert list(table) == list(reference[0])
        for key, column in table.items():
            assert column == [row[key] for row in reference], key

    def test_one_wigner_phase_per_arm(self, monkeypatch, capsys):
        calls = []
        original = cli.wigner_phases

        def counting(m, n):
            calls.append(np.shape(n))
            return original(m, n)

        monkeypatch.setattr(cli, "wigner_phases", counting)
        assert main(["li-check"]) == 0
        capsys.readouterr()
        assert calls == [(2, 3)]

    @pytest.mark.parametrize("command", ["single-photon", "li-check"])
    @pytest.mark.parametrize("beta", ["0.9999", "-0.9999", "0.99999", "-0.99999", "0.999999"])
    def test_fast_boost_exits_0(self, command, beta, capsys):
        # the metric residual of boost_z grows as gamma^2 in rounding (1.1e-12
        # at 0.9999); an absolute 1e-12 bound rejected these boosts
        assert main([command, "--beta", beta]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "m", [np.diag([1.0, -1.0, -1.0, -1.0]), np.diag([-1.0, -1.0, -1.0, -1.0]), 2.0 * np.eye(4)]
    )
    def test_non_lorentz_or_improper_matrix_exits_2(self, m, monkeypatch, capsys):
        monkeypatch.setattr(cli, "boost_z", lambda beta: m)
        assert main(["li-check"]) == 2
        assert "config error" in capsys.readouterr().err


class TestNegativeFlagValues:
    """A sweepable flag's value may start with '-' in the space-separated
    form, also where argparse would read it as an option name."""

    @pytest.mark.parametrize(
        "argv, joined",
        [
            (["li-check", "--beta", "-1e-5"], ["li-check", "--beta=-1e-5"]),
            (["pair", "--beta", "-3e-4"], ["pair", "--beta=-3e-4"]),
            (
                ["single-photon", "--phi", "-1:1:3", "--theta", "1"],
                ["single-photon", "--phi=-1:1:3", "--theta", "1"],
            ),
            (
                ["li-check", "--theta", "1", "--phi", "-.5", "--beta", "-0.5"],
                ["li-check", "--theta", "1", "--phi=-.5", "--beta=-0.5"],
            ),
            (
                ["negativity", "--alpha", "-0.5:0.5:3", "--beta", "-1e-2", "--grid-theta", "8",
                 "--grid-phi", "8"],
                ["negativity", "--alpha=-0.5:0.5:3", "--beta=-1e-2", "--grid-theta", "8",
                 "--grid-phi", "8"],
            ),
        ],
    )
    def test_space_separated_matches_joined_form(self, argv, joined, capsys):
        assert main(joined) == 0
        expected = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["budget", "--link-length", "-1e3"],
             "link parameter length must be positive and finite"),
            (["budget", "--link-length", "-1000"],
             "link parameter length must be positive and finite"),
            (["purify", "--link-wavelength", "-8e-7"],
             "link parameter wavelength must be positive and finite"),
            (["negativity", "--sigma", "-1e-3"], "sigma: must be positive, got -0.001"),
            (["purify", "--target-purity", "-.5"], "target_purity: must lie in (0, 1], got -0.5"),
        ],
    )
    def test_negative_numeric_value_is_a_config_error(self, argv, message, capsys):
        # every numeric flag, not only the sweepable ones, reaches the
        # scenario checks with its negative value
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert "expected one argument" not in err

    def test_missing_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["li-check", "--beta", "--theta", "1"])
        assert exited.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


class TestSweepCostIndependentOfSize:
    """Guard against the per-point path coming back: the number of
    eigensolver calls and DensityMatrix constructions must not grow with the
    number of points swept.  The pure-state distances and negativities need
    neither a factorization nor an eigensolve; a diffracted pair's
    negativities take one check and one eigensolve per alpha."""

    @staticmethod
    def _counts(monkeypatch, run, scenario):
        counts = {"eigvalsh": 0, "cholesky": 0, "density_matrices": 0}
        eigvalsh = np.linalg.eigvalsh
        cholesky = np.linalg.cholesky
        post_init = DensityMatrix.__post_init__

        def counting_eigvalsh(*args, **kwargs):
            counts["eigvalsh"] += 1
            return eigvalsh(*args, **kwargs)

        def counting_cholesky(*args, **kwargs):
            counts["cholesky"] += 1
            return cholesky(*args, **kwargs)

        def counting_post_init(self):
            counts["density_matrices"] += 1
            post_init(self)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
            patch.setattr(np.linalg, "cholesky", counting_cholesky)
            patch.setattr(DensityMatrix, "__post_init__", counting_post_init)
            run(scenario)
        return counts

    def test_single_photon(self, monkeypatch):
        def scenario(n):
            return Scenario(beta=1e-4, theta=SweepSpec(0.1, 3.0, n), phi=SweepSpec(0.0, 6.0, n))

        small = self._counts(monkeypatch, run_single_photon_sweep, scenario(12))
        large = self._counts(monkeypatch, run_single_photon_sweep, scenario(24))
        assert small == large
        assert small == {"eigvalsh": 0, "cholesky": 0, "density_matrices": 0}

    def test_pair(self, monkeypatch):
        def scenario(n):
            return Scenario(beta=1e-4, theta=SweepSpec(0.1, 3.0, n), phi=0.4)

        small = self._counts(monkeypatch, run_pair_sweep, scenario(60))
        large = self._counts(monkeypatch, run_pair_sweep, scenario(120))
        assert small == large
        assert small == {"eigvalsh": 0, "cholesky": 0, "density_matrices": 0}

    def test_li_check(self, monkeypatch):
        # the six negativities come from the amplitude rows' singular values
        counts = self._counts(monkeypatch, run_li_check, Scenario(beta=0.3, theta=1.0, phi=0.4))
        assert counts == {"eigvalsh": 0, "cholesky": 0, "density_matrices": 0}

    def test_negativity(self, monkeypatch):
        # the kernel's stack is checked once, by negativity, and its partial
        # transposes eigensolved in one call, whatever the number of betas
        def scenario(n):
            return Scenario(beta=SweepSpec(0.05, 0.5, n), alpha=0.3, sigma=1.0, grid_theta=8, grid_phi=8)

        # the Gauss-Legendre nodes are kept per count, and their first build
        # eigensolves a companion matrix: build them before counting
        make_grid(8, 8, 1.0)
        small = self._counts(monkeypatch, run_negativity_sweep, scenario(3))
        large = self._counts(monkeypatch, run_negativity_sweep, scenario(11))
        assert small == large
        assert small == {"eigvalsh": 1, "cholesky": 1, "density_matrices": 0}


class TestGrid:
    def test_negativity_sweep_builds_grid_once(self, monkeypatch):
        calls = []
        make_grid = cli.make_grid

        def counting_make_grid(*args, **kwargs):
            calls.append(args)
            return make_grid(*args, **kwargs)

        monkeypatch.setattr(cli, "make_grid", counting_make_grid)
        scenario = Scenario(
            beta=0.2, alpha=SweepSpec(0.0, 1.0, 3), sigma=1.0, grid_theta=16, grid_phi=16
        )
        table = run_negativity_sweep(scenario)
        assert len(calls) == 1
        assert table["alpha"] == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]
        assert table["beta"] == [0.0, 0.2] * 3

    def test_ceiling_accepted(self):
        Scenario(grid_theta=MAX_GRID_NODES, grid_phi=MAX_GRID_NODES).validate()

    @staticmethod
    def _forbid_make_grid(monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("make_grid called for an oversized grid")

        monkeypatch.setattr(cli, "make_grid", unreachable)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--grid-theta", "100000"],
            ["--grid-phi", str(10**12)],
            ["--grid-theta", str(MAX_GRID_NODES + 1)],
        ],
    )
    def test_oversized_flag_exits_2_before_building(self, flags, monkeypatch, capsys):
        self._forbid_make_grid(monkeypatch)
        assert main(["negativity", *flags]) == 2
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid", [{"n_theta": 100000}, {"n_phi": 10**12}, {"n_phi": MAX_GRID_NODES + 1}]
    )
    def test_oversized_config_exits_2_before_building(self, grid, tmp_path, monkeypatch, capsys):
        self._forbid_make_grid(monkeypatch)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"grid": grid}))
        assert main(["purify", "--config", str(path)]) == 2
        assert "grid" in capsys.readouterr().err


class TestSweepTables:
    def test_negativity_includes_baseline(self):
        scenario = Scenario(
            beta=SweepSpec(0.1, 0.3, 2), alpha=0.0, sigma=1.0, grid_theta=32, grid_phi=32
        )
        table = run_negativity_sweep(scenario)
        assert table["beta"] == [0.0, 0.1, 0.3]
        assert table["alpha"] == [0.0] * 3

    def test_purification_budget_arithmetic(self):
        scenario = Scenario(beta=0.0, alpha=0.0, sigma=0.5, target_purity=0.99)
        table, succeeded = run_purification(scenario)
        assert succeeded
        assert table["cumulative_photons"][0] == pytest.approx(100.0)
        for column in ("cumulative_photons", "fidelity"):
            values = table[column]
            assert all(later > earlier for earlier, later in zip(values, values[1:])), column

    @pytest.mark.parametrize(
        "beta, sigma, outcome",
        [(0.0, 0.5, "target"), (0.0, 3.0, "fidelity drop"), (0.999999, 3.0, "cap")],
    )
    def test_purify_rows_are_the_round_results(self, beta, sigma, outcome):
        table, succeeded = run_purification(Scenario(beta=beta, alpha=0.0, sigma=sigma))
        (rho,) = diffracted_reduced_type1(0.0, [beta], make_grid(64, 64, sigma=sigma))
        trace = photons_required(rho, 0.99, cli.DEFAULT_ATTENUATION)
        assert succeeded == trace.succeeded == (outcome == "target")
        assert (len(trace.rounds) == 41) == (outcome == "cap")
        assert table == {
            "round": [record.round_index for record in trace.rounds],
            "fidelity": [record.fidelity for record in trace.rounds],
            "success_prob": [record.success_probability for record in trace.rounds],
            "cumulative_photons": [record.cumulative_photons for record in trace.rounds],
        }
        successes = []
        for record in trace.rounds:
            if record.round_index > 0:
                successes.append(record.success_probability)
            budget = photon_budget(record.round_index, cli.DEFAULT_ATTENUATION, successes)
            assert record.cumulative_photons == budget
        last = trace.rounds[-1].cumulative_photons
        assert trace.photons_required == (last if succeeded else math.inf)

    def test_budget_row(self):
        table = run_budget(Scenario())
        assert list(table) == ["length", "wavelength", "aperture_source", "aperture_receiver",
                               "attenuation"]
        assert all(len(column) == 1 for column in table.values())
        assert table["attenuation"][0] == pytest.approx(108.16, rel=1e-12)

    def test_li_check_verdicts(self):
        table = run_li_check(Scenario(beta=1e-5, theta=math.pi / 4, phi=0.0))
        assert table["protocol"] == ["type1", "type2", "type3"]
        assert table["verdict"] == ["frame_dependent", "invariant", "invariant"]
        raw = table["trace_distance_raw"]
        assert raw[0] == pytest.approx(1e-5 * math.sin(math.pi / 4), rel=1e-3)
        assert max(raw[1:]) <= 1e-12
        for column in ("negativity_source", "negativity_boosted"):
            assert table[column][1:] == pytest.approx([0.5, 0.5], abs=1e-10), column


class TestRendering:
    def test_csv_format(self):
        text = render_rows(["a", "b"], [(0.5, 2)], "csv")
        assert text == "a,b\n0.5,2\n"

    def test_jsonl_format_parses_back(self):
        text = render_rows(["a", "name"], [(0.5, "x")], "jsonl")
        parsed = json.loads(text.splitlines()[0])
        assert parsed == {"a": 0.5, "name": "x"}

    def test_twelve_significant_digits(self):
        text = render_rows(["x"], [(1.0 / 3.0,)], "csv")
        assert text.splitlines()[1] == "0.333333333333"

    def test_csv_lines_are_the_cell_by_cell_join(self):
        """Rows printed through the first row's %-pattern read exactly as the
        join of their cells: a str as it is, a number to 12 significant
        digits."""
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.5e-310, 1e16,
                    1.8e308, 0.1 + 0.2, 1.0 / 3.0]

        def cell(value):
            return value if isinstance(value, str) else format(value, ".12g")

        for header, rows in _random_tables(18, specials, ["type1", "invariant", "", "frame_dependent"]):
            want = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
            assert render_rows(header, rows, "csv") == "\n".join(want) + "\n"

    def test_jsonl_lines_are_the_cell_by_cell_join(self):
        """JSON lines read exactly as the join of their JSON-encoded keys and
        cells, a str JSON-encoded and a number to 12 significant digits, and
        parse back to those cells."""
        finite = [0.0, -0.0, 5e-324, 2.5e-310, 1e16, 1.7e308, 0.1 + 0.2, 1.0 / 3.0]
        words = ["invariant", 'say "hi"', "back\\slash", "négativité β", "%s %%", ""]

        def cell(value):
            return json.dumps(value) if isinstance(value, str) else format(value, ".12g")

        for header, rows in _random_tables(19, finite, words):
            want = ["{" + ", ".join(f"{json.dumps(k)}: {cell(v)}" for k, v in zip(header, row)) + "}"
                    for row in rows]
            text = render_rows(header, rows, "jsonl")
            assert text == "\n".join(want) + "\n"
            for line, row in zip(text.splitlines(), rows, strict=True):
                assert json.loads(line) == {k: v if isinstance(v, str) else float(cell(v))
                                            for k, v in zip(header, row)}


def _random_tables(seed, specials, words):
    """300 random (header, rows) tables of 1 to 6 columns and 1 to 11 rows,
    each column of one kind: float, numpy float64 (one of ``specials`` 30%
    of the time), int or one of ``words``."""
    rng = np.random.default_rng(seed)

    def draw(kind):
        if kind in ("float", "float64"):
            x = float(rng.choice(specials)) if rng.random() < 0.3 else float(
                rng.normal() * 10.0 ** rng.uniform(-320.0, 300.0))
            return np.float64(x) if kind == "float64" else x
        if kind == "int":
            return int(rng.choice([0, -7, 10**20, int(rng.integers(-10**9, 10**9))]))
        return str(rng.choice(words))

    for _ in range(300):
        schema = rng.choice(["float", "float64", "int", "str"], size=int(rng.integers(1, 7)),
                            p=[0.6, 0.15, 0.1, 0.15])
        header = [f"c{i}" for i in range(len(schema))]
        yield header, [tuple(map(draw, schema)) for _ in range(int(rng.integers(1, 12)))]


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["negativity", "--sigma", "1.4e154", "--grid-theta", "4", "--grid-phi", "4"],
            ["negativity", "--sigma", "1e300", "--grid-theta", "8", "--grid-phi", "8"],
            ["purify", "--sigma", "1e200", "--grid-theta", "4", "--grid-phi", "4"],
        ],
    )
    def test_sigma_squared_overflow_is_flat_beam(self, argv, capsys):
        # sigma^2 would overflow; (theta / sigma)^2 rounds to 0, so the beam
        # is flat over the sphere
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(captured.out.splitlines()) > 1

    def test_sigma_squared_underflow_is_sharp_pair(self, capsys):
        # sigma^2 would underflow to 0; (theta / sigma)^2 is at most 36 on the
        # grid, so the narrow beam gives the sharp pair's negativity
        argv = ["negativity", "--sigma", "1.5e-162", "--grid-theta", "2", "--grid-phi", "2"]
        assert main(argv + ["--beta", "0.1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "alpha,beta,negativity\n0,0,0.5\n0,0.1,0.5\n"

    def test_underflowed_row_weights_exit_2(self, capsys):
        # a row weight is a product of two numbers near sigma: at 1e-160 it
        # underflows to 0 on the 64-row grid, which must not be integrated on
        # the rows left, while the 8-row grid keeps every weight positive
        argv = ["negativity", "--sigma", "1e-160", "--grid-phi", "64", "--grid-theta"]
        assert main(argv + ["64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "all quadrature weights must be positive" in captured.err
        assert main(argv + ["8", "--beta", "0.1"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "0,0.1,0.5"

    def test_unnormalizable_beam_exits_2_before_the_kernel(self, monkeypatch, capsys):
        # every shell weight of the 2 x 4 grid is positive, but each times its
        # row's exp underflows to 0: the grid rejects the beam when it is
        # built, and the kernel is never called
        def kernel(*args):
            raise AssertionError("kernel called on a grid that cannot normalize its beam")

        monkeypatch.setattr(cli, "diffracted_reduced_type1", kernel)
        argv = ["negativity", "--sigma", "1.5e-162", "--grid-theta", "2", "--grid-phi", "4"]
        assert main(argv + ["--beta", "0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "quadrature grid cannot normalize this beam profile" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["budget", "--link-length", "1e200"],
            ["budget", "--link-aperture-source", "1e-200"],
            ["purify", "--link-length", "1.6e160", "--grid-theta", "8", "--grid-phi", "8"],
        ],
    )
    def test_overflowing_budget_exits_2(self, argv, capsys):
        # the attenuation, or the photon budget from round 1 on, is inf
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["budget", "--link-length", "1e-200"],
            ["budget", "--link-aperture-source", "1e-200", "--link-aperture-receiver", "1e-200"],
            ["purify", "--link-length", "1e-200", "--grid-theta", "8", "--grid-phi", "8"],
        ],
    )
    def test_underflowing_attenuation_exits_2(self, argv, capsys):
        # the attenuation underflows to 0, or its denominator does
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "link: attenuation must be" in captured.err

    @pytest.mark.parametrize("target", ["missing/rows.csv", "."])
    def test_unwritable_out_exits_2(self, target, tmp_path, capsys):
        # a missing directory, or a directory in place of the file
        assert main(["budget", "--out", str(tmp_path / target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write output file" in captured.err

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
            # config numbers are JSON numbers: no booleans, no numeric strings
            {"target_purity": True},
            {"link": {"length": True, "wavelength": 8e-7,
                      "aperture_source": 1.0, "aperture_receiver": 1.0}},
            {"sigma": "0.5"},
            {"grid": {"n_theta": "8"}},
            {"beta": True},
            {"beta": "0.1"},
            {"beta": {"start": False, "stop": 0.5, "count": 3}},
            {"beta": {"start": 0, "stop": 0.5, "count": "3"}},
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
        from boostlink import cli, states
        from boostlink.errors import NumericalConsistencyError

        def broken(scenario):
            raise NumericalConsistencyError("stabilizer residual too large")

        monkeypatch.setitem(cli._COMMANDS, "li-check", cli._COMMANDS["li-check"]._replace(run=broken))
        assert cli.main(["li-check"]) == 3
        assert "numerical consistency" in capsys.readouterr().err

    def test_broken_stabilizer_identity_exits_3(self, capsys, monkeypatch):
        # a basis off unit norm breaks |(s . h', s . v')| = 1 inside the
        # real Wigner-phase kernel
        from boostlink import lorentz

        original = lorentz.linear_basis
        monkeypatch.setattr(lorentz, "linear_basis", lambda *n: 1.001 * original(*n))
        assert main(["li-check"]) == 3
        assert "fails to stabilize" in capsys.readouterr().err

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


# Which flags each subcommand reads, written out here rather than taken from
# the parser's own table so that a change to that table shows up as a failure.
_COMMON_FLAGS = ["--config", "--format", "--out"]
_GEOMETRY_FLAGS = _COMMON_FLAGS + ["--beta", "--theta", "--phi"]
_LINK_FLAGS = ["--link-length", "--link-wavelength", "--link-aperture-source",
               "--link-aperture-receiver"]
_NEGATIVITY_FLAGS = _COMMON_FLAGS + ["--beta", "--alpha", "--sigma", "--grid-theta", "--grid-phi"]
ACCEPTED_FLAGS = {
    "single-photon": _GEOMETRY_FLAGS,
    "pair": _GEOMETRY_FLAGS,
    "li-check": _GEOMETRY_FLAGS,
    "negativity": _NEGATIVITY_FLAGS,
    "purify": _NEGATIVITY_FLAGS + ["--target-purity"] + _LINK_FLAGS + ["--strict"],
    "budget": _COMMON_FLAGS + _LINK_FLAGS,
}
# a value whose str() is what the parser stores; None marks a switch
FLAG_VALUES = {
    "--config": "scenario.json", "--format": "jsonl", "--out": "rows.csv",
    "--beta": "0.1", "--theta": "0.5", "--phi": "0.2", "--alpha": "1.2", "--sigma": "0.7",
    "--grid-theta": "7", "--grid-phi": "9", "--target-purity": "0.95",
    "--link-length": "5.0", "--link-wavelength": "8e-07", "--link-aperture-source": "0.5",
    "--link-aperture-receiver": "0.25", "--strict": None,
}


def _flag_argv(flag):
    value = FLAG_VALUES[flag]
    return [flag] if value is None else [flag, value]


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize(
        "command, flag",
        [(command, flag) for command, flags in ACCEPTED_FLAGS.items() for flag in flags],
    )
    def test_read_flag_is_accepted(self, command, flag):
        args = cli.build_parser().parse_args([command, *_flag_argv(flag)])
        stored = getattr(args, flag[2:].replace("-", "_"))
        if FLAG_VALUES[flag] is None:
            assert stored is True
        else:
            assert str(stored) == FLAG_VALUES[flag]

    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for command, flags in ACCEPTED_FLAGS.items()
            for flag in FLAG_VALUES
            if flag not in flags
        ],
    )
    def test_unread_flag_exits_2(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exited:
            main([command, *_flag_argv(flag)])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["li-check", "--alpha", "1.2"],
            ["li-check", "--grid-theta", "7"],
            ["li-check", "--sigma", "3"],
            ["single-photon", "--sigma", "9"],
            ["single-photon", "--link-length", "5"],
            ["budget", "--beta", "0.1"],
            ["negativity", "--link-length", "5"],
            ["negativity", "--theta", "0.5"],
            ["purify", "--phi", "0.5"],
        ],
    )
    def test_named_foreign_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        capsys.readouterr()

    def test_known_unread_config_keys_are_accepted(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "sigma": 3.0, "alpha": 1.2, "grid": {"n_theta": 7, "n_phi": 9}, "target_purity": 0.5,
            "link": {"length": 5.0, "wavelength": 8e-7, "aperture_source": 1.0,
                     "aperture_receiver": 1.0},
        }))
        assert main(["li-check"]) == 0
        plain = capsys.readouterr().out
        assert main(["li-check", "--config", str(path)]) == 0
        assert capsys.readouterr().out == plain


def _outcome(argv, out_path, capsys):
    """Exit code, stdout, stderr and ``--out`` file bytes of one ``main`` call."""
    out_path.unlink(missing_ok=True)
    try:
        code = main(argv)
    except SystemExit as exited:
        code = exited.code
    captured = capsys.readouterr()
    written = out_path.read_bytes() if out_path.exists() else None
    return code, captured.out, captured.err, written


class TestParserReuse:
    """The parser is built once per process; no call may leave state on it
    that changes what a later call prints."""

    @staticmethod
    def _sequence(out_path):
        grid = ["--grid-theta", "16", "--grid-phi", "16"]
        strict = ["purify", "--sigma", "2.0", *grid, "--target-purity", "0.999"]
        return [
            strict + ["--strict"],
            strict,
            ["negativity", "--format", "jsonl", "--beta", "0:0.2:3", *grid],
            ["li-check", "--sigma", "3"],
            ["negativity", "--beta", "0:0.2:3", *grid],
            ["negativity", "--sigma", "-1"],  # a config error: sigma must not carry over
            ["li-check"],
            ["budget", "--out", str(out_path)],
            ["budget"],
        ]

    def test_repeated_calls_match_fresh_parsers(self, tmp_path, monkeypatch, capsys):
        out_path = tmp_path / "rows.csv"
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parser", cli.build_parser)  # a new parser every call
            fresh = [_outcome(argv, out_path, capsys) for argv in self._sequence(out_path)]
        cli._parser.cache_clear()
        reused = [_outcome(argv, out_path, capsys) for argv in self._sequence(out_path)]
        assert [code for code, *_ in fresh] == [4, 0, 0, 2, 0, 2, 0, 0, 0]
        assert fresh[7][3] is not None and fresh[7][1] == ""
        assert reused == fresh


class TestFixedCostsPaidOnce:
    """Guards on the setup a small op must not repeat: the parser build and
    the Gauss-Legendre nodes."""

    def test_parser_built_once_per_process(self, monkeypatch, capsys):
        builds = []
        build_parser = cli.build_parser

        def counting_build_parser():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        grid = ["--grid-theta", "8", "--grid-phi", "8"]
        argvs = [
            ["single-photon", "--theta", "0.1:3:3", "--phi", "0:6:3"],
            ["pair", "--theta", "0.1:3:3"],
            ["negativity", "--beta", "0.1", *grid],
            ["purify", "--sigma", "0.5", *grid],
            ["budget"],
            ["li-check"],
        ]
        for argv in argvs * 3:
            assert main(argv) == 0
        capsys.readouterr()
        assert len(builds) == 1

    def test_nodes_computed_once_per_node_count(self, monkeypatch, capsys):
        counts = []
        leggauss = np.polynomial.legendre.leggauss

        def counting_leggauss(n):
            counts.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
        diffraction._gauss_legendre.cache_clear()
        grid = ["--grid-theta", "16", "--grid-phi", "16"]
        assert main(["negativity", "--alpha", "0:1:3", "--beta", "0.2", *grid]) == 0
        assert main(["purify", "--sigma", "0.5", *grid]) == 0
        assert main(["purify", "--sigma", "1.5", "--beta", "0.3", *grid]) == 0
        capsys.readouterr()
        assert counts == [16]
