"""Scenario configuration, sweep execution, and machine-readable output.

Subcommands: single-photon, pair, negativity, purify, budget, li-check.
Each is declared once, as one ``_COMMANDS`` entry: its help text, the flags
it reads, its defaults and its runner.  A scenario is assembled from the
command's defaults, then an optional JSON config file, then CLI flags, in
that order of precedence.  A flag the subcommand does not read is an
argparse error (exit 2).  Unknown config keys are errors; known keys a
subcommand does not read are accepted, so one file can serve several
subcommands.  The parser is built on the first ``main`` call and reused for
the rest of the process.  Each runner returns its table as columns (name ->
one value per printed row).  Output is CSV (default) or JSON lines; numbers
are printed with 12 significant digits and rows are emitted in deterministic
sweep order, so identical scenarios produce byte-identical output.  Both
formats print through one %-pattern built from the first row's cell types
(``render_rows``).

Exit codes: 0 success, 2 configuration error (an unreadable config file or
an unwritable ``--out`` included), 3 numerical-consistency error or a
degenerate protocol step, 4 purification-failure outcome under --strict.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .diffraction import diffracted_reduced_type1, make_grid
from .errors import ConfigError, DegenerateProtocolError, DomainError, NumericalConsistencyError, is_real
from .lorentz import aberrate, boost_z, linear_basis, polar_angles, unit_vectors, wigner_phases
from .photon import check_photons, check_polarizations
from .purification import LinkParams, attenuation, photons_required
# DensityMatrix is unused here; perfbench's tracer test reads cli.DensityMatrix
from .quantum import DensityMatrix, negativity, pure_negativities, pure_trace_distances
from .states import pair_amplitudes, type2_amplitudes, type3_amplitudes

FORMATS = ("csv", "jsonl")
DEFAULT_ATTENUATION = 100.0
LI_TOLERANCE = 1e-9
# Per-axis ceiling on quadrature nodes: Gauss-Legendre node generation costs
# O(n^2) memory and O(n^3) time, and a kernel call evaluates
# n_theta * (n_phi // 2 + 1) nodes per distinct arm beta.
MAX_GRID_NODES = 1024
# Ceiling on one sweep's point count and on the product of a scenario's sweep
# counts: values are built as lists before they are checked, and a command
# computes once per point of its sweeps' product.
MAX_SWEEP_POINTS = 10_000

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
        if not 2 <= self.count <= MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep count must be in [2, {MAX_SWEEP_POINTS}], got {self.count}")
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
            try:
                return [math.exp(a + (b - a) * i / (n - 1)) for i in range(n)]
            except OverflowError:  # rounding can push exp past the largest float
                raise ConfigError(f"log sweep to {self.stop} overflows a float") from None
        return [self.start + (self.stop - self.start) * i / (n - 1) for i in range(n)]


@dataclass
class Scenario:
    """Everything a subcommand needs.  ``main`` starts from the command's
    defaults; a runner that reads an unset setting raises ConfigError."""

    beta: float | SweepSpec | None = None
    theta: float | SweepSpec | None = None
    phi: float | SweepSpec | None = None
    alpha: float | SweepSpec | None = None
    sigma: float = 1.0
    grid_theta: int = 64
    grid_phi: int = 64
    link: LinkParams | None = None
    target_purity: float = 0.99

    def validate(self):
        if not (2 <= self.grid_theta <= MAX_GRID_NODES and 2 <= self.grid_phi <= MAX_GRID_NODES):
            raise ConfigError(
                f"grid: n_theta and n_phi must lie in [2, {MAX_GRID_NODES}], "
                f"got {self.grid_theta} and {self.grid_phi}"
            )
        settings = [getattr(self, name) for name in _SWEEPABLE]
        points = math.prod(s.count for s in settings if isinstance(s, SweepSpec))
        if points > MAX_SWEEP_POINTS:
            raise ConfigError(
                f"sweeps: the product of the sweep counts is {points}, above {MAX_SWEEP_POINTS}"
            )
        for name in ("sigma",) + _SWEEPABLE:
            setting = getattr(self, name)
            if setting is not None and not all(map(math.isfinite, _values(self, name))):
                raise ConfigError(f"{name}: must be finite, got {setting}")
        if self.sigma <= 0.0:
            raise ConfigError(f"sigma: must be positive, got {self.sigma}")
        if not 0.0 < self.target_purity <= 1.0:
            raise ConfigError(f"target_purity: must lie in (0, 1], got {self.target_purity}")


def _values(scenario: Scenario, name: str) -> list[float]:
    """A sweep's points, or the one scalar, of the scenario's setting ``name``."""
    setting = getattr(scenario, name)
    if isinstance(setting, SweepSpec):
        return setting.values()
    return [_scalar(scenario, name)]


def _scalar(scenario: Scenario, name: str) -> float:
    setting = getattr(scenario, name)
    if setting is None:
        raise ConfigError(f"{name}: this command needs a value, and none is set")
    if isinstance(setting, SweepSpec):
        raise ConfigError(f"{name}: this command needs a scalar, not a sweep")
    return float(setting)


# ---------------------------------------------------------------------------
# sweep implementations (pure library calls; each returns its table as a dict
# of column name -> list, one value per printed row, in print order)
# ---------------------------------------------------------------------------


def run_single_photon_sweep(scenario: Scenario) -> dict[str, list]:
    """Trace distance of a horizontally polarized photon against its boosted
    self, over a (theta, phi) grid, versus beta*sin(theta)*|cos(phi)|.

    One array pass over the grid: the h vector at every direction and at its
    aberrated image, with the polarization and photon checks on every point."""
    beta = _scalar(scenario, "beta")
    thetas, phis = _values(scenario, "theta"), _values(scenario, "phi")
    theta, phi = np.repeat(thetas, len(phis)), np.tile(phis, len(thetas))
    n = theta.size
    rest = unit_vectors(*polar_angles(theta, phi))
    # rest directions first, then their aberrated images
    normals = np.concatenate([rest, aberrate(rest, beta)])
    eps = linear_basis(*normals.T)[:3].T
    check_polarizations(eps, normals)
    momenta = np.hstack([np.ones((n, 1)), rest])
    check_photons(np.concatenate([momenta, momenta @ boost_z(beta).T]), normals)
    numeric = pure_trace_distances(eps[:n], eps[n:])
    approx = np.abs(beta * np.sin(theta) * np.cos(phi))
    return {"theta": theta.tolist(), "phi": phi.tolist(), "eps_numeric": numeric.tolist(),
            "eps_approx": approx.tolist(), "residual": (numeric - approx).tolist()}


def run_pair_sweep(scenario: Scenario) -> dict[str, list]:
    """Trace distance of the polarization pair across frames for back-to-back
    photons, versus beta*sin(theta).

    One array pass over the thetas (``_type1_amplitudes``)."""
    beta = _scalar(scenario, "beta")
    phi = _scalar(scenario, "phi")
    thetas = _values(scenario, "theta")
    arms = _back_to_back(thetas, [phi] * len(thetas))
    numeric = pure_trace_distances(*_type1_amplitudes(*arms, beta))
    approx = np.abs(beta * np.sin(thetas))
    return {"theta": thetas, "eps_numeric": numeric.tolist(), "eps_approx": approx.tolist(),
            "residual": (numeric - approx).tolist()}


def _back_to_back(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """(N, 3) unit vectors of back-to-back pairs: arm A along each
    (theta, phi), arm B at its polar antipode (pi - theta, phi + pi)."""
    theta_a, phi_a = polar_angles(theta, phi)
    theta_b, phi_b = polar_angles(math.pi - theta_a, phi_a + math.pi)
    return unit_vectors(theta_a, phi_a), unit_vectors(theta_b, phi_b)


def _type1_amplitudes(n_a, n_b, beta) -> tuple[np.ndarray, np.ndarray]:
    """Type-I amplitudes of the pairs along the (N, 3) unit vectors ``n_a``
    and ``n_b``, at rest and with both directions aberrated by a z-boost
    ``beta``: two (N, 9) stacks, checked on every row."""
    return pair_amplitudes(n_a, n_b), pair_amplitudes(aberrate(n_a, beta), aberrate(n_b, beta))


def run_negativity_sweep(scenario: Scenario) -> dict[str, list]:
    """Negativity of the diffracted pair per (alpha, beta), including the
    beta = 0 baseline."""
    betas = _values(scenario, "beta")
    if all(b != 0.0 for b in betas):
        betas = [0.0] + betas
    alphas = _values(scenario, "alpha")
    grid = make_grid(scenario.grid_theta, scenario.grid_phi, scenario.sigma)
    values = [negativity(diffracted_reduced_type1(alpha, betas, grid), (3, 3)) for alpha in alphas]
    return {"alpha": np.repeat(alphas, len(betas)).tolist(),
            "beta": np.tile(betas, len(alphas)).tolist(),
            "negativity": np.concatenate(values).tolist()}


def run_purification(scenario: Scenario) -> tuple[dict[str, list], bool]:
    """Round-by-round purification of the diffracted pair: fidelity, success
    probability, and the cumulative photon budget."""
    beta = _scalar(scenario, "beta")
    alpha = _scalar(scenario, "alpha")
    grid = make_grid(scenario.grid_theta, scenario.grid_phi, scenario.sigma)
    (rho,) = diffracted_reduced_type1(alpha, [beta], grid)
    factor = attenuation(scenario.link) if scenario.link is not None else DEFAULT_ATTENUATION
    trace = photons_required(rho, scenario.target_purity, factor)
    names = {"round": "round_index", "fidelity": "fidelity",
             "success_prob": "success_probability", "cumulative_photons": "cumulative_photons"}
    table = {column: [getattr(r, name) for r in trace.rounds] for column, name in names.items()}
    return table, trace.succeeded


def run_budget(scenario: Scenario) -> dict[str, list]:
    """The link's parameters and its attenuation, as a one-row table."""
    link = scenario.link if scenario.link is not None else PAPER_LINK
    columns = {**asdict(link), "attenuation": attenuation(link)}
    return {key: [value] for key, value in columns.items()}


_LI_COLUMNS = ("protocol", "trace_distance_raw", "trace_distance_compensated",
               "negativity_source", "negativity_boosted", "verdict")


def run_li_check(scenario: Scenario) -> dict[str, list]:
    """Frame-invariance report for all three protocols at one geometry:
    trace distance across frames (raw and phase-compensated), negativity in
    both frames, and a verdict.

    Each table entry holds one cut's amplitude rows at rest, boosted and
    compensated: type I on (3, 3), types II and III stacked on (2, 2).  Per
    cut, one ``pure_trace_distances`` call gives the raw and compensated
    distances and one ``pure_negativities`` call the negativities at rest
    and boosted, each row's value bit for bit a one-row stack's.  Type I
    aberrates both directions and has nothing to compensate.  Types II and
    III take one Wigner phase per arm (helicity +1), read in the linear
    basis's frame by one ``wigner_phases`` call, which checks the boost
    matrix: the type II branch phases shift by -Theta_A and -Theta_B, the
    type III global phase by -(Theta_A + Theta_B), and the compensated rows
    add the computed phases back.  Under this z-boost the phase is 0 up to
    rounding of order gamma^2 eps, so their raw distance is round-off and
    the compensated column cannot fail yet; it tests something only once
    li-check boosts along a tilted axis."""
    beta = _scalar(scenario, "beta")
    theta = _scalar(scenario, "theta")
    phi = _scalar(scenario, "phi")
    n_a, n_b = _back_to_back([theta], [phi])
    rest, moved = _type1_amplitudes(n_a, n_b, beta)
    wigner = wigner_phases(boost_z(beta), np.concatenate([n_a, n_b]))
    # branch phases at rest, boosted and compensated; x + -x is exactly 0.0
    phases = np.stack([np.zeros(2), -wigner, -wigner + wigner])
    fock = (type2_amplitudes(*phases.T), type3_amplitudes(phases.sum(axis=1)))
    protocols = (
        (("type1",), (3, 3), np.stack([rest, moved, moved])),
        (("type2", "type3"), (2, 2), np.stack(fock, axis=1)),
    )
    rows = []
    for names, dims, (source, boosted, compensated) in protocols:
        raw, distance = pure_trace_distances(
            np.concatenate([source, source]), np.concatenate([boosted, compensated])
        ).reshape(2, -1).tolist()
        at_rest, after = pure_negativities(np.concatenate([source, boosted]), dims).reshape(2, -1).tolist()
        for name, r, d, n0, n1 in zip(names, raw, distance, at_rest, after):
            rows.append((name, r, d, n0, n1, "invariant" if d <= LI_TOLERANCE else "frame_dependent"))
    return dict(zip(_LI_COLUMNS, map(list, zip(*rows))))


# ---------------------------------------------------------------------------
# configuration assembly
# ---------------------------------------------------------------------------

_SWEEPABLE = ("beta", "theta", "phi", "alpha")
_LINK_FIELDS = tuple(f.name for f in fields(LinkParams))


def _config_number(name, value, kind=float):
    """A config value as ``kind`` (float, or int for node and sweep counts,
    which must be integral); anything but a JSON number, a boolean or a
    numeric string included, is a ConfigError."""
    try:
        if not is_real(value):
            raise TypeError
        number = float(value)
        if kind is int:
            if not number.is_integer():
                raise ValueError
            return int(number)
        return number
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}") from None


def _config_object(name, value, keys, what="keys") -> dict:
    """``value``, which must be a JSON object whose keys lie in ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected an object, got {value!r}")
    if unknown := set(value) - set(keys):
        raise ConfigError(f"{name}: unknown {what} {sorted(unknown)}")
    return value


def _link(values: dict) -> LinkParams:
    try:
        return LinkParams(**values)
    except DomainError as err:
        raise ConfigError(f"link: {err}") from None


def _parse_sweepable(name, value):
    if is_real(value):
        return _config_number(name, value)
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected a number or a sweep object, got {value!r}")
    spec = _config_object(name, value, ("start", "stop", "count", "scale"), "sweep keys")
    try:
        return SweepSpec(
            _config_number(f"{name}.start", spec["start"]),
            _config_number(f"{name}.stop", spec["stop"]),
            _config_number(f"{name}.count", spec["count"], int),
            str(spec.get("scale", "linear")),
        )
    except KeyError as missing:
        raise ConfigError(f"{name}: sweep spec is missing key {missing}") from None


def load_config(path: str, scenario: Scenario) -> Scenario:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from None
    except ValueError as err:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"config file is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    allowed = {f.name for f in fields(Scenario)} - {"grid_theta", "grid_phi"} | {"grid"}
    if unknown := set(data) - allowed:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    for key, value in data.items():
        if key in _SWEEPABLE:
            setattr(scenario, key, _parse_sweepable(key, value))
        elif key == "link":
            link = _config_object("link", value, _LINK_FIELDS)
            if missing := set(_LINK_FIELDS) - set(link):
                raise ConfigError(f"link: missing keys {sorted(missing)}")
            scenario.link = _link({k: _config_number(f"link.{k}", v) for k, v in link.items()})
        elif key == "grid":
            grid = _config_object("grid", value, ("n_theta", "n_phi"))
            for axis in ("theta", "phi"):
                n = grid.get(f"n_{axis}", getattr(scenario, f"grid_{axis}"))
                setattr(scenario, f"grid_{axis}", _config_number(f"grid.n_{axis}", n, int))
        else:  # sigma, target_purity
            setattr(scenario, key, _config_number(key, value))
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
    try:
        return SweepSpec(float(parts[0]), float(parts[1]), int(parts[2]), *parts[3:])
    except ValueError as err:
        raise ConfigError(f"{name}: malformed sweep {text!r} ({err})") from None


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------


def render_rows(header: list[str], rows: list[tuple], fmt: str) -> str:
    """The table's text: ``header`` and one line per row of ``rows`` (one at
    least), all through one %-pattern built from the first row's cell
    types: a number to 12 significant digits and a str as it is, in CSV
    under the header, or JSON-encoded in a JSON-lines object whose keys are
    encoded once.  No table ``main`` prints holds a non-finite number
    (``Scenario.validate`` checks the inputs finite, distances,
    negativities and fidelities are finite, and a non-finite budget or
    attenuation raises), so every number is valid JSON."""
    cells = ["%s" if isinstance(v, str) else "%.12g" for v in rows[0]]
    if fmt == "csv":
        head, pattern = ",".join(header) + "\n", ",".join(cells) + "\n"
    elif fmt == "jsonl":
        keys = (json.dumps(k) + ": " for k in header)
        head, pattern = "", "{" + ", ".join(map(str.__add__, keys, cells)) + "}\n"
        if "%s" in cells:
            rows = [[json.dumps(v) if isinstance(v, str) else v for v in row] for row in rows]
    else:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    return head + pattern * len(rows) % tuple(itertools.chain.from_iterable(rows))


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


# flag -> add_argument keywords; each subcommand registers only the flags it reads
_FLAGS = {
    "--config": {"help": "JSON scenario file"},
    "--format": {"choices": FORMATS, "default": "csv"},
    "--out": {"help": "output path (default stdout)"},
    "--beta": {"help": "velocity, or sweep start:stop:count[:log]"},
    "--theta": {"help": "polar angle, or sweep start:stop:count[:log]"},
    "--phi": {"help": "azimuth, or sweep start:stop:count[:log]"},
    "--alpha": {"help": "beam axis angle, or sweep start:stop:count[:log]"},
    "--sigma": {"type": float, "help": "angular spread of the beams"},
    "--grid-theta": {"type": int, "help": "quadrature nodes in theta"},
    "--grid-phi": {"type": int, "help": "quadrature nodes in phi"},
    "--target-purity": {"type": float, "help": "purity the rounds must reach, in (0, 1]"},
    "--link-length": {"type": float, "help": "inter-satellite distance in meters"},
    "--link-wavelength": {"type": float, "help": "photon wavelength in meters"},
    "--link-aperture-source": {"type": float, "help": "transmitter aperture in meters"},
    "--link-aperture-receiver": {"type": float, "help": "receiver aperture in meters"},
    "--strict": {"action": "store_true", "help": "exit 4 when purification reports failure"},
}
_COMMON = ("--config", "--format", "--out")
_GEOMETRY = ("--beta", "--theta", "--phi")
_BEAM = ("--beta", "--alpha", "--sigma", "--grid-theta", "--grid-phi")
_LINK = ("--link-length", "--link-wavelength", "--link-aperture-source", "--link-aperture-receiver")
_POLAR_SWEEP = SweepSpec(0.1, math.pi - 0.1, 30)


class _Command(NamedTuple):
    help: str
    flags: tuple[str, ...]  # read besides _COMMON
    defaults: dict  # Scenario keywords
    run: Callable  # Scenario -> table of columns; purify's returns (table, succeeded)


_COMMANDS = {
    "single-photon": _Command(
        "single-photon polarization error over a (theta, phi) grid",
        _GEOMETRY,
        {"beta": 1e-5, "theta": _POLAR_SWEEP, "phi": SweepSpec(0.0, 2.0 * math.pi, 30)},
        run_single_photon_sweep,
    ),
    "pair": _Command(
        "polarization-pair error law for back-to-back photons",
        _GEOMETRY,
        {"beta": 1e-5, "theta": _POLAR_SWEEP, "phi": 0.0},
        run_pair_sweep,
    ),
    "negativity": _Command(
        "diffracted-pair negativity under boosts",
        _BEAM,
        {"beta": SweepSpec(0.0, 0.5, 11), "alpha": 0.0},
        run_negativity_sweep,
    ),
    "purify": _Command(
        "purification rounds and photon budget",
        _BEAM + ("--target-purity",) + _LINK + ("--strict",),
        {"beta": 0.0, "alpha": 0.0},
        run_purification,
    ),
    "budget": _Command("link attenuation from geometry", _LINK, {}, run_budget),
    "li-check": _Command(
        "frame-invariance verdicts for all three protocols",
        _GEOMETRY,
        {"beta": 1e-5, "theta": math.pi / 4, "phi": 0.0},
        run_li_check,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostlink",
        description="Lorentz-boost effects on photonic entanglement distribution",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in _COMMON + command.flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process: parsing
    leaves no state on it, and one build costs about as much as a small op."""
    return build_parser()


def _assemble_scenario(args) -> Scenario:
    scenario = Scenario(**_COMMANDS[args.command].defaults)
    if args.config:
        scenario = load_config(args.config, scenario)
    # a flag the subcommand does not register is absent from args: unset
    for name in (f.name for f in fields(Scenario)):
        flag = getattr(args, name, None)
        if flag is not None:
            setattr(scenario, name, _parse_sweep_flag(name, flag) if name in _SWEEPABLE else flag)
    link_flags = {k: v for k in _LINK_FIELDS if (v := getattr(args, f"link_{k}", None)) is not None}
    if link_flags:
        scenario.link = _link({**asdict(scenario.link or PAPER_LINK), **link_flags})
    scenario.validate()
    return scenario


def _emit(text: str, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as handle:
            handle.write(text)
    except OSError as err:
        raise ConfigError(f"cannot write output file: {err}") from None


# argparse reads '-1e-5' or '-0.5:0.5:3' after a flag as an option name, not
# as its value; ``main`` passes such a value of a numeric flag as flag=value
_NUMERIC_FLAGS = frozenset(
    [f"--{name}" for name in _SWEEPABLE]
    + [flag for flag, keywords in _FLAGS.items() if keywords.get("type") in (int, float)]
)
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _join_negative_values(argv: list[str]) -> list[str]:
    joined = []
    for arg in argv:
        if joined and joined[-1] in _NUMERIC_FLAGS and _NEGATIVE_VALUE.match(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    args = _parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        result = _COMMANDS[args.command].run(_assemble_scenario(args))
        # purify's runner also says whether the rounds reached the target purity
        table, succeeded = result if args.command == "purify" else (result, True)
        _emit(render_rows(list(table), list(zip(*table.values())), args.format), args.out)
    except (ConfigError, DomainError) as err:
        print(f"boostlink: config error: {err}", file=sys.stderr)
        return 2
    except NumericalConsistencyError as err:
        print(f"boostlink: numerical consistency error: {err}", file=sys.stderr)
        return 3
    except DegenerateProtocolError as err:
        print(f"boostlink: degenerate protocol step: {err}", file=sys.stderr)
        return 3
    if not succeeded and getattr(args, "strict", False):
        print("boostlink: purification did not reach the target purity", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
