"""Scenario configuration, sweep execution, and machine-readable output.

Subcommands: single-photon, pair, negativity, purify, budget, li-check.
A scenario is assembled from per-command defaults, then an optional JSON
config file, then CLI flags, in that order of precedence.  Unknown config
keys are errors.  Output is CSV (default) or JSON lines; floats are printed
with 12 significant digits and rows are emitted in deterministic sweep order,
so identical scenarios produce byte-identical output.

Exit codes: 0 success, 2 configuration error, 3 numerical-consistency error
or a degenerate protocol step, 4 purification-failure outcome under --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

from .diffraction import BeamProfile, diffracted_reduced_type1, make_grid
from .errors import ConfigError, DegenerateProtocolError, DomainError, NumericalConsistencyError
from .lorentz import SphericalDirection
from .photon import boost_photon, linear_polarization, make_photon
from .purification import (
    LinkParams,
    attenuation,
    photon_budget,
    photons_required,
    polarization_pair_to_qutrits,
)
from .quantum import DensityMatrix, negativity, trace_distance
from .states import (
    boost_type1,
    boost_type2,
    boost_type3,
    make_type1,
    make_type2,
    make_type3,
    number_basis_reduced,
    reduced_polarization,
)

PROTOCOLS = ("type1", "type2", "type3")
FORMATS = ("csv", "jsonl")
DEFAULT_ATTENUATION = 100.0
LI_TOLERANCE = 1e-9

PAPER_LINK = LinkParams(
    length=13000e3, wavelength=800e-9, aperture_source=1.0, aperture_receiver=1.0
)


@dataclass(frozen=True)
class SweepSpec:
    """Evenly spaced sweep values, linear or logarithmic."""

    start: float
    stop: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.count < 2:
            raise ConfigError(f"sweep count must be >= 2, got {self.count}")
        if self.start == self.stop:
            raise ConfigError("sweep start and stop must differ")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"sweep scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and (self.start <= 0.0 or self.stop <= 0.0):
            raise ConfigError("log sweeps need positive endpoints")

    def values(self) -> list[float]:
        n = self.count
        if self.scale == "log":
            a, b = math.log(self.start), math.log(self.stop)
            return [math.exp(a + (b - a) * i / (n - 1)) for i in range(n)]
        return [self.start + (self.stop - self.start) * i / (n - 1) for i in range(n)]


@dataclass
class Scenario:
    """Everything a subcommand needs; unset fields take command defaults."""

    protocol: str = "type1"
    beta: float | SweepSpec | None = None
    theta: float | SweepSpec | None = None
    phi: float | SweepSpec | None = None
    alpha: float | SweepSpec | None = None
    sigma: float = 1.0
    grid_theta: int = 64
    grid_phi: int = 64
    link: LinkParams | None = None
    target_purity: float = 0.99
    compensate_phases: bool = False
    seed: int = 0  # reserved; every computation here is deterministic

    def validate(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol: must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.grid_theta < 2 or self.grid_phi < 2:
            raise ConfigError("grid: n_theta and n_phi must be >= 2")
        for name in ("sigma",) + _SWEEPABLE:
            setting = getattr(self, name)
            if setting is not None and not all(map(math.isfinite, _values(setting))):
                raise ConfigError(f"{name}: must be finite, got {setting}")
        if self.sigma <= 0.0:
            raise ConfigError(f"sigma: must be positive, got {self.sigma}")
        if not 0.0 < self.target_purity <= 1.0:
            raise ConfigError(f"target_purity: must lie in (0, 1], got {self.target_purity}")


def _values(setting) -> list[float]:
    if isinstance(setting, SweepSpec):
        return setting.values()
    return [float(setting)]


def _scalar(setting, name: str) -> float:
    if isinstance(setting, SweepSpec):
        raise ConfigError(f"{name}: this command needs a scalar, not a sweep")
    return float(setting)


# ---------------------------------------------------------------------------
# sweep implementations (pure library calls; the CLI only formats their rows)
# ---------------------------------------------------------------------------


def run_single_photon_sweep(scenario: Scenario) -> list[dict]:
    """Trace distance of a horizontally polarized photon against its boosted
    self, over a (theta, phi) grid, versus beta*sin(theta)*|cos(phi)|."""
    beta = _scalar(scenario.beta, "beta")
    rows = []
    for theta in _values(scenario.theta):
        for phi in _values(scenario.phi):
            direction = SphericalDirection(theta, phi)
            rest = linear_polarization(direction, "h").eps
            moving = boost_photon(make_photon(direction, "h"), beta).polarization.eps
            numeric = trace_distance(
                DensityMatrix.from_pure(rest, (4,)),
                DensityMatrix.from_pure(moving, (4,)),
            )
            approx = abs(beta * math.sin(theta) * math.cos(phi))
            rows.append(
                {
                    "theta": theta,
                    "phi": phi,
                    "eps_numeric": numeric,
                    "eps_approx": approx,
                    "residual": numeric - approx,
                }
            )
    return rows


def run_pair_sweep(scenario: Scenario) -> list[dict]:
    """Trace distance of the polarization pair across frames for back-to-back
    photons, versus beta*sin(theta)."""
    beta = _scalar(scenario.beta, "beta")
    phi = _scalar(scenario.phi, "phi")
    rows = []
    for theta in _values(scenario.theta):
        dir_a = SphericalDirection(theta, phi)
        state = make_type1(dir_a, dir_a.antipode())
        numeric = trace_distance(
            reduced_polarization(state),
            reduced_polarization(boost_type1(state, beta)),
        )
        approx = abs(beta * math.sin(theta))
        rows.append(
            {
                "theta": theta,
                "eps_numeric": numeric,
                "eps_approx": approx,
                "residual": numeric - approx,
            }
        )
    return rows


def run_negativity_sweep(scenario: Scenario) -> list[dict]:
    """Negativity of the diffracted pair per (alpha, beta), including the
    beta = 0 baseline."""
    betas = _values(scenario.beta) if scenario.beta is not None else [0.0]
    if all(b != 0.0 for b in betas):
        betas = [0.0] + betas
    rows = []
    for alpha in _values(scenario.alpha):
        beam = BeamProfile(sigma=scenario.sigma, alpha=alpha)
        grid = make_grid(scenario.grid_theta, scenario.grid_phi, sigma=scenario.sigma)
        for beta in betas:
            rho = diffracted_reduced_type1(beam, beam, beta, grid)
            rows.append({"alpha": alpha, "beta": beta, "negativity": negativity(rho, 0)})
    return rows


def _scenario_attenuation(scenario: Scenario) -> float:
    if scenario.link is not None:
        return attenuation(scenario.link)
    return DEFAULT_ATTENUATION


def run_purification(scenario: Scenario) -> tuple[list[dict], bool]:
    """Round-by-round purification of the diffracted pair: fidelity, success
    probability, and the cumulative photon budget."""
    beta = _scalar(scenario.beta, "beta") if scenario.beta is not None else 0.0
    alpha = _scalar(scenario.alpha, "alpha") if scenario.alpha is not None else 0.0
    beam = BeamProfile(sigma=scenario.sigma, alpha=alpha)
    grid = make_grid(scenario.grid_theta, scenario.grid_phi, sigma=scenario.sigma)
    rho = polarization_pair_to_qutrits(diffracted_reduced_type1(beam, beam, beta, grid))
    factor = _scenario_attenuation(scenario)
    trace = photons_required(rho, scenario.target_purity, factor)
    rows = []
    successes = []
    for record in trace.rounds:
        if record.round_index > 0:
            successes.append(record.success_probability)
        rows.append(
            {
                "round": record.round_index,
                "fidelity": record.fidelity,
                "success_prob": record.success_probability,
                "cumulative_photons": photon_budget(record.round_index, factor, successes),
            }
        )
    return rows, trace.succeeded


def run_budget(scenario: Scenario) -> list[dict]:
    link = scenario.link if scenario.link is not None else PAPER_LINK
    return [
        {
            "length": link.length,
            "wavelength": link.wavelength,
            "aperture_source": link.aperture_source,
            "aperture_receiver": link.aperture_receiver,
            "attenuation": attenuation(link),
        }
    ]


def run_li_check(scenario: Scenario) -> list[dict]:
    """Frame-invariance report for all three protocols at one geometry:
    trace distance across frames (raw and phase-compensated), negativity in
    both frames, and a verdict."""
    beta = _scalar(scenario.beta, "beta")
    theta = _scalar(scenario.theta, "theta")
    phi = _scalar(scenario.phi, "phi")
    dir_a = SphericalDirection(theta, phi)
    dir_b = dir_a.antipode()
    rows = []

    state1 = make_type1(dir_a, dir_b)
    rho_s = reduced_polarization(state1)
    rho_a = reduced_polarization(boost_type1(state1, beta))
    eps = trace_distance(rho_s, rho_a)
    rows.append(
        {
            "protocol": "type1",
            "trace_distance_raw": eps,
            "trace_distance_compensated": eps,  # nothing to compensate
            "negativity_source": negativity(rho_s, 0),
            "negativity_boosted": negativity(rho_a, 0),
            "verdict": "frame_dependent" if eps > LI_TOLERANCE else "invariant",
        }
    )

    for name, make, boost in (
        ("type2", make_type2, boost_type2),
        ("type3", make_type3, boost_type3),
    ):
        state = make(dir_a, dir_b)
        boosted = boost(state, beta)
        rho_s = number_basis_reduced(state)
        rho_a = number_basis_reduced(boosted)
        raw = trace_distance(rho_s, rho_a)
        compensated = trace_distance(
            number_basis_reduced(state, compensate_phases=True),
            number_basis_reduced(boosted, compensate_phases=True),
        )
        rows.append(
            {
                "protocol": name,
                "trace_distance_raw": raw,
                "trace_distance_compensated": compensated,
                "negativity_source": negativity(rho_s, 0),
                "negativity_boosted": negativity(rho_a, 0),
                "verdict": "invariant" if compensated <= LI_TOLERANCE else "frame_dependent",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# configuration assembly
# ---------------------------------------------------------------------------

_COMMAND_DEFAULTS = {
    "single-photon": {
        "beta": 1e-5,
        "theta": SweepSpec(0.1, math.pi - 0.1, 30),
        "phi": SweepSpec(0.0, 2.0 * math.pi, 30),
    },
    "pair": {"beta": 1e-5, "theta": SweepSpec(0.1, math.pi - 0.1, 30), "phi": 0.0},
    "negativity": {"beta": SweepSpec(0.0, 0.5, 11), "alpha": 0.0},
    "purify": {"beta": 0.0, "alpha": 0.0},
    "budget": {},
    "li-check": {"beta": 1e-5, "theta": math.pi / 4, "phi": 0.0},
}

_SWEEPABLE = ("beta", "theta", "phi", "alpha")
_SCALAR_FIELDS = {
    "sigma": float,
    "target_purity": float,
    "seed": int,
    "compensate_phases": bool,
    "protocol": str,
}


def _parse_sweepable(name, value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, dict):
        unknown = set(value) - {"start", "stop", "count", "scale"}
        if unknown:
            raise ConfigError(f"{name}: unknown sweep keys {sorted(unknown)}")
        try:
            return SweepSpec(
                float(value["start"]),
                float(value["stop"]),
                int(value["count"]),
                str(value.get("scale", "linear")),
            )
        except KeyError as missing:
            raise ConfigError(f"{name}: sweep spec is missing key {missing}") from None
    raise ConfigError(f"{name}: expected a number or a sweep object, got {value!r}")


def _parse_link(value) -> LinkParams:
    if not isinstance(value, dict):
        raise ConfigError(f"link: expected an object, got {value!r}")
    expected = {"length", "wavelength", "aperture_source", "aperture_receiver"}
    unknown = set(value) - expected
    if unknown:
        raise ConfigError(f"link: unknown keys {sorted(unknown)}")
    missing = expected - set(value)
    if missing:
        raise ConfigError(f"link: missing keys {sorted(missing)}")
    try:
        return LinkParams(**{k: float(v) for k, v in value.items()})
    except DomainError as err:
        raise ConfigError(f"link: {err}") from None


def _parse_grid(value) -> tuple[int, int]:
    if not isinstance(value, dict):
        raise ConfigError(f"grid: expected an object, got {value!r}")
    unknown = set(value) - {"n_theta", "n_phi"}
    if unknown:
        raise ConfigError(f"grid: unknown keys {sorted(unknown)}")
    return int(value.get("n_theta", 64)), int(value.get("n_phi", 64))


def load_config(path: str, scenario: Scenario) -> Scenario:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    scenario_fields = {f.name for f in fields(Scenario)}
    allowed = (scenario_fields - {"grid_theta", "grid_phi"}) | {"grid"}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    for key, value in data.items():
        if key in _SWEEPABLE:
            setattr(scenario, key, _parse_sweepable(key, value))
        elif key == "link":
            scenario.link = _parse_link(value)
        elif key == "grid":
            scenario.grid_theta, scenario.grid_phi = _parse_grid(value)
        elif key in _SCALAR_FIELDS:
            kind = _SCALAR_FIELDS[key]
            if kind is bool and not isinstance(value, bool):
                raise ConfigError(f"{key}: expected a boolean, got {value!r}")
            try:
                setattr(scenario, key, kind(value))
            except (TypeError, ValueError):
                raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}") from None
    return scenario


def _parse_sweep_flag(name, text):
    """Flag syntax: a float, or 'start:stop:count' with an optional ':log'."""
    parts = text.split(":")
    if len(parts) == 1:
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{name}: expected a number or start:stop:count[:log]") from None
    if len(parts) not in (3, 4):
        raise ConfigError(f"{name}: expected start:stop:count[:log], got {text!r}")
    scale = "linear"
    if len(parts) == 4:
        scale = parts[3]
    try:
        return SweepSpec(float(parts[0]), float(parts[1]), int(parts[2]), scale)
    except ValueError:
        raise ConfigError(f"{name}: malformed sweep {text!r}") from None


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _json_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return json.dumps(str(value))
        return format(value, ".12g")
    if isinstance(value, (int,)):
        return str(value)
    return json.dumps(value)


def render_rows(rows: list[dict], fmt: str) -> str:
    if not rows:
        return ""
    if fmt == "csv":
        header = ",".join(rows[0].keys())
        lines = [header]
        for row in rows:
            lines.append(",".join(_format_value(v) for v in row.values()))
        return "\n".join(lines) + "\n"
    if fmt == "jsonl":
        lines = []
        for row in rows:
            body = ", ".join(f"{json.dumps(k)}: {_json_value(v)}" for k, v in row.items())
            lines.append("{" + body + "}")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _add_common_flags(parser):
    parser.add_argument("--config", help="JSON scenario file")
    parser.add_argument("--format", choices=FORMATS, default="csv")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--grid-theta", type=int, help="quadrature nodes in theta")
    parser.add_argument("--grid-phi", type=int, help="quadrature nodes in phi")
    parser.add_argument("--seed", type=int, help="reserved; computations are deterministic")
    parser.add_argument("--protocol", choices=PROTOCOLS)
    parser.add_argument("--beta", help="velocity, or sweep start:stop:count[:log]")
    parser.add_argument("--theta", help="polar angle, or sweep start:stop:count[:log]")
    parser.add_argument("--phi", help="azimuth, or sweep start:stop:count[:log]")
    parser.add_argument("--alpha", help="beam axis angle, or sweep start:stop:count[:log]")
    parser.add_argument("--sigma", type=float, help="angular spread of the beams")
    parser.add_argument("--target-purity", type=float, dest="target_purity")
    parser.add_argument("--compensate-phases", action="store_true", default=None,
                        dest="compensate_phases")
    parser.add_argument("--link-length", type=float, help="inter-satellite distance in meters")
    parser.add_argument("--link-wavelength", type=float, help="photon wavelength in meters")
    parser.add_argument("--link-aperture-source", type=float, help="transmitter aperture in meters")
    parser.add_argument("--link-aperture-receiver", type=float, help="receiver aperture in meters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostlink",
        description="Lorentz-boost effects on photonic entanglement distribution",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "single-photon": "single-photon polarization error over a (theta, phi) grid",
        "pair": "polarization-pair error law for back-to-back photons",
        "negativity": "diffracted-pair negativity under boosts",
        "purify": "purification rounds and photon budget",
        "budget": "link attenuation from geometry",
        "li-check": "frame-invariance verdicts for all three protocols",
    }
    for name, help_text in descriptions.items():
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        if name == "purify":
            p.add_argument("--strict", action="store_true",
                           help="exit 4 when purification reports failure")
    return parser


def _assemble_scenario(args) -> Scenario:
    scenario = Scenario()
    for key, value in _COMMAND_DEFAULTS[args.command].items():
        setattr(scenario, key, value)
    if args.config:
        scenario = load_config(args.config, scenario)
    for name in _SWEEPABLE:
        flag = getattr(args, name)
        if flag is not None:
            setattr(scenario, name, _parse_sweep_flag(name, flag))
    for name in ("protocol", "sigma", "target_purity", "compensate_phases", "seed"):
        flag = getattr(args, name)
        if flag is not None:
            setattr(scenario, name, flag)
    if args.grid_theta is not None:
        scenario.grid_theta = args.grid_theta
    if args.grid_phi is not None:
        scenario.grid_phi = args.grid_phi
    link_flags = {
        "length": args.link_length,
        "wavelength": args.link_wavelength,
        "aperture_source": args.link_aperture_source,
        "aperture_receiver": args.link_aperture_receiver,
    }
    if any(v is not None for v in link_flags.values()):
        base = scenario.link if scenario.link is not None else PAPER_LINK
        merged = {k: (v if v is not None else getattr(base, k)) for k, v in link_flags.items()}
        try:
            scenario.link = LinkParams(**merged)
        except DomainError as err:
            raise ConfigError(f"link: {err}") from None
    scenario.validate()
    return scenario


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = _assemble_scenario(args)
        purification_failed = False
        if args.command == "single-photon":
            rows = run_single_photon_sweep(scenario)
        elif args.command == "pair":
            rows = run_pair_sweep(scenario)
        elif args.command == "negativity":
            rows = run_negativity_sweep(scenario)
        elif args.command == "purify":
            rows, succeeded = run_purification(scenario)
            purification_failed = not succeeded
        elif args.command == "budget":
            rows = run_budget(scenario)
        else:
            rows = run_li_check(scenario)
        _emit(render_rows(rows, args.format), args.out)
    except (ConfigError, DomainError) as err:
        print(f"boostlink: config error: {err}", file=sys.stderr)
        return 2
    except NumericalConsistencyError as err:
        print(f"boostlink: numerical consistency error: {err}", file=sys.stderr)
        return 3
    except DegenerateProtocolError as err:
        print(f"boostlink: degenerate protocol step: {err}", file=sys.stderr)
        return 3
    if purification_failed and getattr(args, "strict", False):
        print("boostlink: purification did not reach the target purity", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
