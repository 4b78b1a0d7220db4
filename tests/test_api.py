import os
from functools import partial
import random
import subprocess
import sys
from pathlib import Path

import math

import numpy as np
import pytest

import wirediff
from wirediff import (BeamParams, DomainError, amplitudes,
                      compare_curves, disk_amplitude, dsigma_dtheta, dsigma_dtheta_two_beam,
                      first_dark_points, fraunhofer_amplitudes, sample_pattern,
                      sinc, validate_grid)

# public names deleted in 0.2.0 to 0.19.0, each a second path to a quantity
# that keeps one, a test oracle now in tests/oracles.py, an input-error type
# that DomainError replaces, a spelling of the spin channel that Channel
# replaced, a spelling type that plain strings replace, a dark-point search that closed forms replace, a layer that
# only echoed its caller's arguments, wrapped a call or held one product or
# one factor of it, or a classical density that the two densities give over
# fraunhofer_amplitudes, a step with one caller that checked its inputs again,
# a one-channel spinor element that the list of one per final spin replaces,
# a holder of the two-beam geometry whose one reader takes alpha and phi itself,
# an area-matching step and a result holder that compare_curves replaces,
# a holder of a grid and its density, and a default grid, that the arrays
# sample_pattern returns and takes replace, or a spinor factor that only
# amplitudes calls, with the channel and theta it has checked
REMOVED = ("superpose_amplitudes", "momentum_transfer_pair", "form_factor",
           "dsigma_dtheta_full_spin_summed", "hyp0f1_reg2", "hyp0f1_reg2_series",
           "bessel_j1", "disk_ft_oracle", "AccuracyError", "BracketError", "RangeError",
           "ConfigError", "Spin", "SpinChannel", "NO_FLIP", "FLIP", "dsigma_dtheta_full",
           "dsigma_dtheta_low_energy", "dsigma_dtheta_two_beam_full",
           "dsigma_dtheta_two_beam_low_energy", "first_dark_angle", "ZeroReport",
           "sample_beam_pattern", "unit_spinor", "spinor_factors", "phi_theta_scan",
           "ScanResult", "find_zero", "ClassicalConfig", "pattern_single",
           "pattern_two_beam", "pattern_classical", "WirePotential", "fraunhofer_single",
           "fraunhofer_two_beam", "momentum_transfer_single", "normalize_density",
           "spinor_element", "TwoBeamConfig", "Channel", "Normalization", "Spelling",
           "match_areas", "CurveComparison", "Pattern", "default_grid", "spinor_elements")


class TestPublicSurface:
    def test_every_entry_resolves(self):
        missing = [name for name in wirediff.__all__ if not hasattr(wirediff, name)]
        assert missing == []

    def test_no_duplicates(self):
        assert len(wirediff.__all__) == len(set(wirediff.__all__)) == 16

    def test_lazy_names_resolve_list_and_star_import(self):
        # in a fresh interpreter, where no name has been loaded yet: each one
        # resolves, dir() lists it, and a star import binds it
        code = ("import wirediff; names = wirediff.__all__; listed = dir(wirediff); "
                "star = {}; exec('from wirediff import *', star); "
                "print([n for n in names if n not in listed or n not in star "
                "or getattr(wirediff, n) is not star[n]])")
        src = str(Path(wirediff.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True, timeout=60)
        assert done.stdout == "[]\n"

    def test_disk_amplitude_is_the_exported_amplitude(self):
        from wirediff import numerics

        assert "disk_amplitude" in wirediff.__all__
        assert wirediff.disk_amplitude is numerics.disk_amplitude

    def test_removed_names_are_gone(self):
        from wirediff import (analysis, classical, cli, electron, numerics, patterns, potential,
                              twobeam)

        for name in REMOVED:
            assert name not in wirediff.__all__
            for module in (wirediff, analysis, classical, cli, electron, numerics, patterns,
                           potential, twobeam):
                assert not hasattr(module, name), f"{module.__name__}.{name}"

    def test_removed_attributes_are_gone(self):
        # a provenance echo of the caller's own arguments
        assert not hasattr(BeamParams(1e7), "wavelength_m")

    def test_readme_library_example_runs(self):
        root = Path(__file__).resolve().parents[1]
        section = (root / "README.md").read_text().split("\n## Library\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(root / "src")},
                              check=False, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_version_matches_pyproject(self):
        import re

        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) \
            == wirediff.__version__

    def test_import_loads_no_test_dependency(self):
        # numpy is the only runtime dependency; the oracles and their libraries stay in tests/
        code = ("import sys, wirediff, wirediff.cli; "
                "print(sorted({'scipy', 'mpmath', 'hypothesis', 'pytest', 'oracles'} "
                "& set(sys.modules)))")
        src = str(Path(wirediff.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True, timeout=60)
        assert done.stdout == "[]\n"


_GRID = np.linspace(-0.1, 0.1, 5)
_FLAT = np.ones(5)

# every check of a caller's argument in the library, one bad input each
_BAD_INPUTS = {
    "wire pR": lambda: amplitudes(BeamParams(1e7), 0.0, 0.1),
    "beam momentum": lambda: BeamParams(momentum=-1.0),
    "beam mass": lambda: BeamParams(momentum=1e7, mass_ev=math.nan),
    # namedtuple's copy with a field replaced, which would skip the constructor
    "beam replace": lambda: BeamParams(1e7)._replace(momentum=-1.0),
    # numeric text: math.isfinite would raise TypeError, and float() would parse it
    "text beam momentum": lambda: BeamParams("1"),
    "text pR": lambda: amplitudes(BeamParams(1e7), "100", 0.1),
    "wavelength": lambda: BeamParams.from_wavelength_m(0.0),
    # "1" * 1e-9 would raise TypeError
    "text wavelength": lambda: BeamParams.from_wavelength_nm("1"),
    # the pR that qR = 2 pR |sin(theta/2)| is formed from, here NaN rather than 0
    "transfer momentum": lambda: amplitudes(BeamParams(1e7), math.nan, 0.1),
    # np.sin warns on an infinite theta, which the suite makes an error
    "transfer theta": lambda: amplitudes(BeamParams(1e7), 1.0, math.inf),
    "disk_amplitude": lambda: disk_amplitude(math.inf),
    "sinc": lambda: sinc(np.array([0.0, math.nan])),
    # float() would parse the text and refuse the complex numbers
    "disk_amplitude text": lambda: disk_amplitude("1"),
    "disk_amplitude complex": lambda: disk_amplitude(1j),
    "sinc text": lambda: sinc("1"),
    "sinc 0-d text": lambda: sinc(np.array("1")),
    "sinc 0-d complex": lambda: sinc(np.array(1j)),
    # full mode's spinor factors: theta, and the 1e150 eV bound on pc and mc^2
    "spinor theta": lambda: amplitudes(BeamParams(1e7), 100.0, math.inf, "full", "sum"),
    "spinor energy": lambda: amplitudes(BeamParams(1e7, mass_ev=1e200), 100.0, 0.1, "full"),
    "fraunhofer theta": lambda: fraunhofer_amplitudes(1.0, math.nan),
    "fraunhofer infinite theta": lambda: fraunhofer_amplitudes(1.0, math.inf),
    "fraunhofer text pR": lambda: fraunhofer_amplitudes("1", 0.1),
    "alpha": lambda: dsigma_dtheta_two_beam(
        partial(amplitudes, BeamParams(1e7), 100.0), -0.1, 0.0, 0.1),
    # theta -/+ alpha/2 at alpha ~ 1e17 rounds every grid angle to one double
    "alpha above pi": lambda: dsigma_dtheta_two_beam(
        partial(amplitudes, BeamParams(1e7), 100.0), 4.0, 0.0, 0.1),
    "classical alpha": lambda: dsigma_dtheta_two_beam(
        partial(fraunhofer_amplitudes, 100.0), math.nan, 0.0, 0.1),
    "phi": lambda: dsigma_dtheta_two_beam(
        partial(amplitudes, BeamParams(1e7), 100.0), 0.1, math.inf, 0.1),
    "phi 2-D": lambda: dsigma_dtheta_two_beam(
        partial(amplitudes, BeamParams(1e7), 100.0), 0.1, [[0.0, 1.0]], 0.1),
    "phi empty": lambda: dsigma_dtheta_two_beam(
        partial(amplitudes, BeamParams(1e7), 100.0), 0.1, [], 0.1),
    "array alpha": lambda: dsigma_dtheta_two_beam(
        partial(amplitudes, BeamParams(1e7), 100.0), np.array([0.1, 0.2]), 0.0, 0.1),
    "phi text": lambda: dsigma_dtheta_two_beam(
        partial(amplitudes, BeamParams(1e7), 100.0), 0.1, "x", 0.1),
    "complex phi": lambda: dsigma_dtheta_two_beam(
        partial(amplitudes, BeamParams(1e7), 100.0), 0.1, 1j, 0.1),
    "complex phases": lambda: dsigma_dtheta_two_beam(
        partial(amplitudes, BeamParams(1e7), 100.0), 0.1, [1j], 0.1),
    # a density gives one value per theta, or one row of them per phase
    "pattern 3-D": lambda: sample_pattern(lambda theta: np.ones((2, 1, theta.size)), _GRID),
    "pattern length": lambda: sample_pattern(lambda theta: np.ones((2, theta.size + 1)), _GRID),
    "pattern short": lambda: sample_pattern(lambda theta: np.ones(theta.size - 1), _GRID),
    "pattern no rows": lambda: sample_pattern(lambda theta: np.empty((0, theta.size)), _GRID),
    "p_radius": lambda: sample_pattern(
        partial(dsigma_dtheta, partial(fraunhofer_amplitudes, 0.0)), _GRID),
    # a NaN radius scale gives the classical curve a NaN pR
    "radius_scale": lambda: dsigma_dtheta_two_beam(
        partial(fraunhofer_amplitudes, math.nan), 0.1, 0.0, 0.1),
    "empty grid": lambda: validate_grid([]),
    "non-finite grid": lambda: validate_grid([0.0, math.nan]),
    "decreasing grid": lambda: validate_grid([0.1, 0.0]),
    # float() would parse the text and refuse the complex numbers
    "text grid": lambda: validate_grid(["0.1", "0.2"]),
    "complex grid": lambda: validate_grid([1j, 2j]),
    # numpy refuses the ragged nesting with a plain ValueError
    "ragged grid": lambda: validate_grid([[1.0], [1.0, 2.0]]),
    "unknown mode": lambda: amplitudes(BeamParams(1e7), 100.0, 0.1, "medium"),
    "low-energy flip": lambda: amplitudes(BeamParams(1e7), 100.0, 0.1,
                                          "low-energy", "flip"),
    "area_matched": lambda: sample_pattern(np.ones_like, _GRID, "area-matched"),
    "unknown normalization": lambda: sample_pattern(
        partial(dsigma_dtheta, partial(amplitudes, BeamParams(1e7), 100.0)), _GRID, "peak_one"),
    "unknown channel": lambda: sample_pattern(
        partial(dsigma_dtheta, partial(amplitudes, BeamParams(1e7), 100.0, channel="both")),
        _GRID),
    "zero peak": lambda: sample_pattern(np.zeros_like, _GRID, "peak-one"),
    "zero area": lambda: sample_pattern(np.zeros_like, _GRID, "unit-area"),
    "dark-point p_radius": lambda: first_dark_points(math.inf, "quantum"),
    "dark-point text p_radius": lambda: first_dark_points("100", "quantum"),
    "dark-point n": lambda: first_dark_points(100.0, "quantum", 0),
    "dark-point float n": lambda: first_dark_points(100.0, "quantum", 2.0),
    "dark-point method": lambda: first_dark_points(100.0, "semiclassical"),
    "too few dark points": lambda: first_dark_points(2.5, "quantum", 2),
    "zero target": lambda: compare_curves(_GRID, _FLAT, np.zeros(5)),
    # the area ratio overflows, so the scaled target would not be finite
    "tiny target": lambda: compare_curves(_GRID, _FLAT, np.full(5, 1e-320)),
    "compare_curves grid": lambda: compare_curves(_GRID[::-1], _FLAT, _FLAT),
    # as many phase rows as thetas: one area per row would broadcast along theta
    "compare_curves target phase rows": lambda: compare_curves(_GRID, _FLAT, np.ones((5, 5))),
    "compare_curves phase rows": lambda: compare_curves(_GRID, np.ones((5, 5)), _FLAT),
    # one value per theta, finite, non-negative and real, in each curve
    "compare_curves length": lambda: compare_curves(_GRID, _FLAT, np.ones(4)),
    "compare_curves negative": lambda: compare_curves(_GRID, _FLAT, -_FLAT),
    "compare_curves nan": lambda: compare_curves(_GRID, np.full(5, math.nan), _FLAT),
    "compare_curves text": lambda: compare_curves(_GRID, _FLAT, ["1"] * 5),
    "compare_curves ragged": lambda: compare_curves(_GRID, _FLAT, [[1.0], [1.0, 2.0]]),
}

# rows whose message must name the function the caller called, or its argument
_NAMED = {"p_radius": "fraunhofer_amplitudes", "radius_scale": "fraunhofer_amplitudes",
          "wire pR": "^amplitudes: p_radius",
          "transfer momentum": "^amplitudes: p_radius", "transfer theta": "^amplitudes: theta",
          "fraunhofer infinite theta": "^fraunhofer_amplitudes: theta",
          "alpha": "^alpha in", "alpha above pi": "^alpha in", "classical alpha": "^alpha in",
          "phi": "^phi must be", "phi 2-D": "^phi must be", "phi empty": "^phi must be",
          "array alpha": "^alpha in", "phi text": "^phi must be", "complex phi": "^phi must be",
          "complex phases": "^phi must be", "pattern 3-D": "^a pattern has",
          "pattern length": "^a pattern has", "compare_curves target phase rows": "single curves",
          "compare_curves phase rows": "single curves", "compare_curves length": "the target is",
          "compare_curves negative": "single curves",
          "compare_curves nan": "^compare_curves: reference must be finite real numbers",
          "compare_curves text": "^compare_curves: target must be finite real numbers",
          "compare_curves ragged": "^compare_curves: target .* ragged nesting$",
          "compare_curves grid": "strictly increasing", "pattern short": "^a pattern has",
          "pattern no rows": "^a pattern has", "text grid": "real numbers",
          "complex grid": "real numbers", "dark-point float n": "n must be an integer",
          "text beam momentum": "^beam momentum", "beam replace": "^beam momentum",
          "text pR": "^amplitudes: p_radius", "spinor theta": "^amplitudes: theta",
          "spinor energy": "^full mode needs",
          "fraunhofer text pR": "^fraunhofer_amplitudes: p_radius",
          "ragged grid": "^angular grid must be finite real numbers, got a ragged",
          "dark-point text p_radius": "^first_dark_points: p_radius",
          "text wavelength": "^wavelength", "disk_amplitude text": "^disk_amplitude: .* real",
          "disk_amplitude complex": "^disk_amplitude: .* real", "sinc text": "^sinc: .* real",
          "sinc 0-d text": "^sinc: .* real", "sinc 0-d complex": "^sinc: .* real"}


class TestInputErrors:
    @pytest.mark.parametrize("name", _BAD_INPUTS, ids=_BAD_INPUTS.keys())
    def test_input_check_raises_domain_error(self, name):
        with pytest.raises(DomainError, match=_NAMED.get(name)):
            _BAD_INPUTS[name]()

    # on a grid of two: a negative or a NaN value, or values that are not real
    # numbers, which a cast to float would parse or strip of their imaginary part
    @pytest.mark.parametrize("density", [[1.0, -1.0], [1.0, math.nan], [1.0, 1.0 + 1j],
                                         ["1", "1"], [1.0, None]])
    def test_pattern_density_invariants_stay_value_errors(self, density):
        # a builder's own density breaking them is the package's fault, not input
        with pytest.raises(ValueError) as exc:
            sample_pattern(lambda theta: np.array(density), _GRID[:2])
        assert not isinstance(exc.value, DomainError)


# every library caller of numerics._require_finite: its label and a call on the one value
_TWO_BEAM = partial(dsigma_dtheta_two_beam, partial(amplitudes, BeamParams(1e7), 100.0), 0.1)
_REAL = {
    "amplitudes": ("amplitudes: theta", lambda x: amplitudes(BeamParams(1e7), 100.0, x)),
    "amplitudes full": ("amplitudes: theta",
                        lambda x: amplitudes(BeamParams(1e7), 100.0, x, "full", "sum")),
    "fraunhofer_amplitudes": ("fraunhofer_amplitudes: theta",
                              lambda x: fraunhofer_amplitudes(100.0, x)),
    "disk_amplitude": ("disk_amplitude: q_r", disk_amplitude),
    "sinc": ("sinc: x", sinc),
    "two-beam theta": ("dsigma_dtheta_two_beam: theta", lambda x: _TWO_BEAM(0.0, x)),
    "two-beam phi": ("phi", lambda x: _TWO_BEAM(x, _GRID)),
    "validate_grid": ("angular grid", validate_grid),
    "compare_curves reference": ("compare_curves: reference",
                                 lambda x: compare_curves(_GRID[:4], x, _FLAT[:4])),
    "compare_curves target": ("compare_curves: target",
                              lambda x: compare_curves(_GRID[:4], _FLAT[:4], x)),
}
# the callers that take one number as well as an array of them
_SCALAR_SLOTS = ["amplitudes", "amplitudes full", "fraunhofer_amplitudes", "disk_amplitude",
                 "sinc", "two-beam theta", "two-beam phi"]
_RAGGED = [[0.1], [0.1, 0.2]]
# text, numeric text, complex, None, a ragged nesting, and a non-finite element
_NOT_REAL = ["0.1", np.array(["0.1", "0.2"]), 0.5j, np.array([0.1, 1j]), None, _RAGGED,
             np.array([0.0, math.nan]), [0.0, math.inf], (0.0, -math.inf), math.nan,
             np.float64(math.inf)]


def _refusal(label, value):
    # the one message: a scalar shown as itself, an array-like by its dtype and shape
    if value is _RAGGED:
        return f"{label} must be finite real numbers, got a ragged nesting"
    if np.ndim(value) == 0:
        return f"{label} must be a finite real number, got {value!r}"
    array = np.asarray(value)
    return (f"{label} must be finite real numbers, got an array of dtype {array.dtype} "
            f"and shape {array.shape}")


def _bits(result):
    # a result's types, shapes and bits, through the lists and dicts the callers return
    if isinstance(result, (list, dict)):
        return [_bits(r) for r in (result.values() if isinstance(result, dict) else result)]
    return type(result), np.shape(result), np.asarray(result).dtype, np.asarray(result).tobytes()


class TestRealInputs:
    @pytest.mark.parametrize("value", _NOT_REAL, ids=repr)
    @pytest.mark.parametrize("caller", _REAL)
    def test_every_caller_refuses_with_its_label(self, caller, value):
        label, call = _REAL[caller]
        with pytest.raises(DomainError) as exc:
            call(value)
        assert str(exc.value) == _refusal(label, value)

    @pytest.mark.parametrize("caller", _REAL)
    def test_array_likes_give_the_float64_result(self, caller):
        # a list, a tuple, an int array and a float32 one, each as the float64 array
        call = _REAL[caller][1]
        want = _bits(call(np.array([0.0, 1.0, 2.0, 3.0])))
        for value in ([0.0, 1.0, 2.0, 3.0], (0, 1, 2, 3), np.arange(4),
                      np.arange(4, dtype=np.float32)):
            assert _bits(call(value)) == want

    @pytest.mark.parametrize("caller", _SCALAR_SLOTS)
    def test_zero_d_array_is_the_number(self, caller):
        call = _REAL[caller][1]
        assert _bits(call(np.array(0.25))) == _bits(call(0.25)) == _bits(call(np.float64(0.25)))

    def test_the_array_is_not_copied(self):
        from wirediff.numerics import _require_finite

        grid = np.linspace(-0.1, 0.1, 5)
        assert _require_finite("x", grid) is grid
        assert validate_grid(grid) is grid
        assert type(_require_finite("x", 3)) is float


# every library caller of numerics._require_positive: its label and a call on the one value
_POSITIVE = {
    "amplitudes": ("amplitudes: p_radius", lambda x: amplitudes(BeamParams(1e7), x, 0.1)),
    "fraunhofer_amplitudes": ("fraunhofer_amplitudes: p_radius",
                              lambda x: fraunhofer_amplitudes(x, 0.1)),
    "first_dark_points": ("first_dark_points: p_radius", lambda x: first_dark_points(x, "quantum")),
    "BeamParams": ("beam momentum", BeamParams),
    "from_wavelength_m": ("wavelength", BeamParams.from_wavelength_m),
    "from_wavelength_nm": ("wavelength", BeamParams.from_wavelength_nm),
}
# not positive, not finite, not real, or a 0-d array in place of a number
_NOT_POSITIVE = [0.0, -1.0, math.nan, math.inf, -math.inf, "1", 1j, None, np.array(1.0)]


class TestPositiveNumbers:
    @pytest.mark.parametrize("value", _NOT_POSITIVE, ids=repr)
    @pytest.mark.parametrize("caller", _POSITIVE)
    def test_every_caller_refuses_with_one_message(self, caller, value):
        label, call = _POSITIVE[caller]
        with pytest.raises(DomainError) as exc:
            call(value)
        assert str(exc.value) == f"{label} must be positive and finite, got {value!r}"

    @pytest.mark.parametrize("value", [1.0, 5e-324, 1.7e308, 3, np.float64(0.5), np.int64(2)],
                             ids=repr)
    def test_accepted_value_is_returned_unchanged(self, value):
        from wirediff.numerics import _require_positive

        assert _require_positive("x", value) is value


# each closed choice, its spellings in the order its message lists them, and a
# public function that takes it
_CHOICES = [
    ("mode", ("low-energy", "full"), lambda v: amplitudes(BeamParams(1e7), 100.0, 0.1, v)),
    ("channel", ("flip", "no-flip", "sum"),
     lambda v: amplitudes(BeamParams(1e7), 100.0, 0.1, "full", v)),
    ("normalization", ("peak-one", "raw", "unit-area"),
     lambda v: sample_pattern(np.ones_like, _GRID, v)),
    ("method", ("quantum", "classical"), lambda v: first_dark_points(100.0, v)),
]
_CHOICE_IDS = ["mode", "channel-amplitudes", "normalization", "method"]


def _near_misses(rng, s):
    # a spelling in the wrong case, padded, of the wrong type, or held in a container
    pad = rng.choice(" \t\n")
    return [s.upper(), s.capitalize(), pad + s, s + pad, None, [s], (s,), np.array([s, s]),
            s.encode(), rng.randint(-3, 3), rng.random()]


class TestChoices:
    @pytest.mark.parametrize("name, spellings, call", _CHOICES, ids=_CHOICE_IDS)
    def test_every_spelling_is_accepted(self, name, spellings, call):
        for spelling in spellings:
            call(spelling)

    @pytest.mark.parametrize("name, spellings, call", _CHOICES, ids=_CHOICE_IDS)
    def test_non_members_name_the_choice_and_its_spellings(self, name, spellings, call):
        rng = random.Random(f"choices-{name}")
        expected = ", ".join(repr(s) for s in spellings)
        for value in (v for _ in range(3) for s in spellings for v in _near_misses(rng, s)):
            with pytest.raises(DomainError) as exc:
                call(value)
            assert str(exc.value) == f"unknown {name} {value!r}; expected one of {expected}"
