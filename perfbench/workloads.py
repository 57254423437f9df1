"""Seeded op generators for the three benchmark workloads.

One op is one ``boostlink.cli.main(argv)`` call.  Every parameter is drawn
from ``random.Random(seed)`` here; the program only ever sees the resulting
argv.  Floats are written with ``repr`` so the argv carries the drawn value
exactly and the checks can re-derive expected identities from ``params``.

Op types follow a fixed cycle within each workload, so the mix (and, for
``scalar-sweeps`` and ``diffraction-fine``, the cost of every op) does not
depend on the seed; only the drawn parameters do.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

SINGLE_PHOTON_GRID = 12  # (theta, phi) points per axis
PAIR_THETAS = 60
FINE_GRID = 128  # negativity quadrature nodes per axis
FINE_BETAS = 3  # plus the beta = 0 baseline the CLI adds
PURIFY_GRID = 32


@dataclass(frozen=True)
class Op:
    """One CLI invocation: the subcommand, its full argv, and the drawn
    values the output checks need."""

    kind: str
    argv: tuple[str, ...]
    params: dict


def _op(kind: str, **params) -> Op:
    argv = [kind]
    for name, value in params.items():
        flag = "--" + name.replace("_", "-")
        argv += [flag, value if isinstance(value, str) else repr(value)]
    return Op(kind, tuple(argv), params)


def _sweep(start: float, stop: float, count: int) -> str:
    return f"{start!r}:{stop!r}:{count}"


def _log_beta(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(-6.0, -2.0)


def _single_photon(rng: random.Random) -> Op:
    beta = _log_beta(rng)
    theta = _sweep(rng.uniform(0.05, 1.5), rng.uniform(1.6, math.pi - 0.05), SINGLE_PHOTON_GRID)
    phi = _sweep(rng.uniform(0.0, math.pi), rng.uniform(math.pi + 0.1, 2.0 * math.pi), SINGLE_PHOTON_GRID)
    return _op("single-photon", beta=beta, theta=theta, phi=phi)


def _pair(rng: random.Random) -> Op:
    beta = _log_beta(rng)
    theta = _sweep(rng.uniform(0.05, 1.5), rng.uniform(1.6, math.pi - 0.05), PAIR_THETAS)
    return _op("pair", beta=beta, theta=theta, phi=rng.uniform(0.0, 2.0 * math.pi))


def _li_check(rng: random.Random) -> Op:
    return _op(
        "li-check",
        beta=_log_beta(rng),
        theta=rng.uniform(0.05, math.pi - 0.05),
        phi=rng.uniform(0.0, 2.0 * math.pi),
    )


def _negativity(rng: random.Random) -> Op:
    low, high = sorted((rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5)))
    return _op(
        "negativity",
        beta=_sweep(low, high, FINE_BETAS),
        alpha=rng.uniform(0.0, math.pi),
        sigma=rng.uniform(0.2, 2.0),
        grid_theta=FINE_GRID,
        grid_phi=FINE_GRID,
    )


def _purify(rng: random.Random) -> Op:
    return _op(
        "purify",
        beta=rng.uniform(0.0, 0.5),
        alpha=rng.uniform(0.0, math.pi),
        sigma=rng.uniform(0.2, 2.0),
        target_purity=rng.uniform(0.95, 0.999),
        link_length=rng.uniform(1e6, 4e7),
        grid_theta=PURIFY_GRID,
        grid_phi=PURIFY_GRID,
    )


def _budget(rng: random.Random) -> Op:
    return _op("budget", link_length=rng.uniform(1e6, 4e7))


# workload name -> fixed cycle of op makers, and why the workload exists
WORKLOADS = {
    "scalar-sweeps": (
        (_single_photon, _pair, _li_check),
        "per-point object path: single-photon, pair and li-check sweeps with small eigensolves; no diffraction",
    ),
    "diffraction-fine": (
        (_negativity,),
        "negativity on a 128x128 grid over 3 betas: per-node diffraction kernel work dominates",
    ),
    "purify-link": (
        (_purify, _purify, _purify, _purify, _budget),
        "purify on a 32x32 grid plus budget: many small diffraction calls, argument parsing and purification rounds",
    ),
}


def generate(workload: str, seed: int) -> Iterator[Op]:
    """Endless deterministic op stream for ``workload`` under ``seed``."""
    makers, _why = WORKLOADS[workload]
    rng = random.Random(seed)
    for make in itertools.cycle(makers):
        yield make(rng)


def first_ops(workload: str, seed: int, count: int) -> list[Op]:
    return list(itertools.islice(generate(workload, seed), count))
