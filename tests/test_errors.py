"""The one rule for a number: ``is_real`` and ``is_count``, and every scalar
library entry that applies them."""

import numpy as np
import pytest

from boostlink.diffraction import diffracted_reduced_type1, make_grid
from boostlink.errors import DomainError, is_count, is_real
from boostlink.lorentz import aberrate, approx_transform_theta, boost_z, unit_vectors
from boostlink.purification import LinkParams, attenuation, bell_target, photon_budget, photons_required

GRID = make_grid(8, 8, 0.3)
DIRECTIONS = unit_vectors(np.array([0.3, 2.0, 3.0]), np.array([0.1, 4.0, 6.0]))
BELL = np.outer(bell_target(), np.conj(bell_target()))
UNIT_LINK = dict(length=1.0, wavelength=1.0, aperture_source=1.0, aperture_receiver=1.0)
VELOCITY = r"boost velocity must satisfy \|beta\| < 1"


def _link(name):
    return lambda x: attenuation(LinkParams(**{**UNIT_LINK, name: x}))


# entry -> (call on the scalar, a valid integral value, a valid fractional
# value, the entry's message); arrays are compared by their bytes, the rest
# by their reprs
ENTRIES = {
    "boost_z": (lambda x: boost_z(x).tobytes(), 0, 0.3, VELOCITY),
    "aberrate": (lambda x: aberrate(DIRECTIONS, x).tobytes(), 0, 0.3, VELOCITY),
    "approx_transform_theta": (lambda x: approx_transform_theta(1.0, x), 0, 0.3, VELOCITY),
    "kernel alpha": (lambda x: diffracted_reduced_type1(x, [0.25], GRID).tobytes(), 0, 0.3,
                     "beam axis angle must be finite"),
    "kernel beta": (lambda x: diffracted_reduced_type1(0.4, [0.25, x], GRID).tobytes(), 0, 0.3, VELOCITY),
    "make_grid sigma": (lambda x: [a.tobytes() for block in make_grid(8, 8, x)._blocks for a in block],
                        1, 0.3, "angular spread must be positive and finite"),
    **{f"LinkParams {name}": (_link(name), 1, 0.3, f"link parameter {name} must be positive and finite")
       for name in UNIT_LINK},
    "photon_budget attenuation": (lambda x: photon_budget(1, x, [0.5]), 100, 100.3,
                                  "attenuation must be positive and finite"),
    "photon_budget success": (lambda x: photon_budget(2, 100.0, [0.5, x]), 1, 0.3,
                              r"success probabilities must lie in \(0, 1\]"),
    "photons_required target": (lambda x: photons_required(BELL, x, 100.0), 1, 0.3,
                                r"target purity must lie in \(0, 1\]"),
    "photons_required attenuation": (lambda x: photons_required(BELL, 0.99, x), 100, 100.3,
                                     "attenuation must be positive and finite"),
}

NOT_REAL = [True, False, 0.5 + 0j, np.complex128(0.5), "0.5", None]


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("value", NOT_REAL, ids=repr)
def test_scalar_entry_rejects_what_is_not_a_real(entry, value):
    call, _, _, message = ENTRIES[entry]
    with pytest.raises(DomainError, match=message):
        call(value)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("kind", [int, np.int64, np.float32])
def test_scalar_entry_takes_any_real_as_its_float(entry, kind):
    # reprs, so that a numpy scalar result is not equal to a float, and a
    # float32 one is not compared in single precision
    call, integral, fractional, _ = ENTRIES[entry]
    assert repr(call(kind(integral))) == repr(call(float(integral)))
    if kind is np.float32:
        # computed as the float it is, not in single precision
        value = np.float32(fractional)
        assert repr(call(value)) == repr(call(float(value)))


def test_real_and_count_rules():
    reals = [0, -3, 2.5, np.int8(1), np.uint64(2), np.float16(0.5), np.float64(-1.0), float("nan")]
    counts = [0, -3, np.int32(4), np.uint8(2)]
    neither = [True, False, np.True_, 0.5 + 0j, np.complex64(1), "1", b"1", None, [1], np.array(1.0)]
    assert all(map(is_real, reals)) and not any(map(is_real, neither))
    assert all(map(is_count, counts)) and not any(map(is_count, neither + [2.0, np.float64(2)]))
