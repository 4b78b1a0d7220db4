"""Output checks for benchmark ops, independent of the program under test.

Densities are recomputed from the closed forms with ``scipy.special.j1``
(quantum amplitude 2 J1(x)/x), the spinor elements and ``sinc``; dark
points come from ``scipy.special.jn_zeros`` and ``arcsin(k pi / pR)``.
Nothing here imports ``wirediff`` or compares against a stored copy of an
earlier output.  Each check returns a list of failure messages; an empty
list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import special

TAU = 2.0 * math.pi
HBARC_EV_M = 1.973269804e-7

DENSITY_TOL = 1e-9        # of the peak
UNIT_AREA_TOL = 1e-12
ZERO_REL_TOL = 1e-9
P_RADIUS_REL_TOL = 1e-12

_J1_ZEROS = special.jn_zeros(1, 32)
# spin option -> the spin-flip channels whose densities it sums
_CHANNELS = {"no-flip": (False,), "flip": (True,), "sum": (False, True)}


def amplitude(x):
    """Quantum amplitude 2 J1(x)/x, equal to 1 at x = 0."""
    x = np.abs(np.asarray(x, dtype=float))
    out = np.ones_like(x)
    nz = x > 0.0
    out[nz] = 2.0 * special.j1(x[nz]) / x[nz]
    return out


def _spinor(params, theta, flip: bool):
    pc = TAU / (params["wavelength_nm"] * 1e-9) * HBARC_EV_M
    m = params["mass_ev"]
    e_plus_m = math.sqrt(pc * pc + m * m) + m
    if flip:
        return pc * pc * np.sin(theta) / e_plus_m
    return (e_plus_m * e_plus_m + pc * pc * np.cos(theta)) / e_plus_m


def _single_density(params, thetas):
    f = amplitude(2.0 * params["p_radius"] * np.sin(0.5 * thetas))
    if params["mode"] == "low-energy":
        return f * f
    return sum((_spinor(params, thetas, flip) * f) ** 2 for flip in _CHANNELS[params["spin"]])


def _two_beam_density(params, thetas, phi):
    pr, alpha = params["p_radius"], params["alpha"]
    f_minus = amplitude(2.0 * pr * np.sin(0.5 * thetas - 0.25 * alpha))
    f_plus = amplitude(2.0 * pr * np.sin(0.5 * thetas + 0.25 * alpha))
    if params.get("mode", "low-energy") == "low-energy":
        pairs = [(f_minus, f_plus)]
    else:
        pairs = [(_spinor(params, thetas - 0.5 * alpha, flip) * f_minus,
                  _spinor(params, thetas + 0.5 * alpha, flip) * f_plus)
                 for flip in _CHANNELS[params["spin"]]]
    c, s = np.cos(phi), np.sin(phi)
    return sum((a + b * c) ** 2 + (b * s) ** 2 for a, b in pairs)


def _normalize(thetas, density, normalization):
    if normalization == "peak-one":
        return density / np.max(density)
    if normalization == "unit-area":
        return density / np.trapezoid(density, thetas)
    return density


def _close(name, got, want, tol_abs):
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= tol_abs:
        i = int(np.argmax(np.abs(got - want)))
        return [f"{name}: max deviation {err:.3e} > {tol_abs:.3e} at index {i}"]
    return []


def _parse_csv(text: str, columns: int):
    lines = text.split("\n")
    if not text.endswith("\n") or not lines[0].startswith("# config: "):
        raise ValueError("CSV must start with a '# config: ' line and end with a newline")
    config = json.loads(lines[0][len("# config: "):])
    header = lines[1]
    body = "\n".join(lines[2:-1])
    values = np.array(body.replace("\n", ",").split(","), dtype=float) if body else np.empty(0)
    if values.size % columns:
        raise ValueError("ragged CSV body")
    return config, header, values.reshape(-1, columns)


def _theta_grid(params):
    return np.linspace(-params["theta_max"], params["theta_max"], params["theta_points"])


def _pattern_output(op, text):
    if op.params["format"] == "csv":
        _, header, table = _parse_csv(text, 2)
        if header != "theta_rad,density":
            raise ValueError(f"unexpected header {header!r}")
        return table[:, 0], table[:, 1]
    data = json.loads(text)["data"]
    return np.array(data["theta_rad"], dtype=float), np.array(data["density"], dtype=float)


def check_pattern(op, text: str) -> list[str]:
    """single / two-beam: grid, closed-form density and normalization properties."""
    params = op.params
    thetas, density = _pattern_output(op, text)
    grid = _theta_grid(params)
    if thetas.shape != grid.shape or not np.array_equal(thetas, grid):
        return [f"theta grid differs from linspace(+-{params['theta_max']}, "
                f"{params['theta_points']})"]
    if op.command == "single":
        raw = _single_density(params, grid)
    else:
        raw = _two_beam_density(params, grid, params["phi"])
    want = _normalize(grid, raw, params["normalization"])
    errors = _close("density", density, want, DENSITY_TOL * float(np.max(want)))
    if params["normalization"] == "peak-one" and float(np.max(density)) != 1.0:
        errors.append(f"peak-one maximum is {float(np.max(density))!r}, not 1")
    if params["normalization"] == "unit-area":
        area = float(np.trapezoid(density, thetas))
        if not abs(area - 1.0) <= UNIT_AREA_TOL:
            errors.append(f"unit-area integral is {area!r}")
    return errors


def check_scan(op, text: str) -> list[str]:
    """scan: (phi, theta) grid, closed-form density, phi = 0 / 2 pi rows equal."""
    params = op.params
    _, header, table = _parse_csv(text, 3)
    if header != "phi_rad,theta_rad,density":
        return [f"unexpected header {header!r}"]
    thetas = _theta_grid(params)
    phis = np.linspace(0.0, TAU, params["phi_points"])
    if table.shape[0] != phis.size * thetas.size:
        return [f"{table.shape[0]} rows, expected {phis.size * thetas.size}"]
    if not (np.array_equal(table[:, 0], np.repeat(phis, thetas.size))
            and np.array_equal(table[:, 1], np.tile(thetas, phis.size))):
        return ["(phi, theta) columns differ from the requested linspace grids"]
    density = table[:, 2].reshape(phis.size, thetas.size)
    want = np.stack([_two_beam_density(params, thetas, phi) for phi in phis])
    errors = _close("density", density.ravel(), want.ravel(), DENSITY_TOL * float(np.max(want)))
    if not np.array_equal(density[0], density[-1]):
        errors.append("rows at phi = 0 and phi = 2 pi differ")
    return errors


def check_compare(op, text: str) -> list[str]:
    """compare: difference metrics from the closed forms, dark angles near the true zeros."""
    params = op.params
    data = json.loads(text)["data"]
    pr, scale = params["p_radius"], params["radius_scale"]
    grid = _theta_grid(params)
    step = float(grid[1] - grid[0])
    quantum = amplitude(2.0 * pr * np.sin(0.5 * grid)) ** 2
    classical = np.sinc(scale * pr * np.sin(grid) / math.pi) ** 2
    matched = classical * (np.trapezoid(quantum, grid) / np.trapezoid(classical, grid))
    diff = quantum - matched
    errors = []
    want = {"max_abs_diff": float(np.max(np.abs(diff))),
            "l2_diff": math.sqrt(float(np.trapezoid(diff * diff, grid)))}
    for key, value in want.items():
        if not abs(data[key] - value) <= DENSITY_TOL:
            errors.append(f"{key} = {data[key]!r}, closed form gives {value!r}")
    true_zero = {"first_zero_quantum_rad": 2.0 * math.asin(_J1_ZEROS[0] / (2.0 * pr)),
                 "first_zero_classical_rad": math.asin(math.pi / (scale * pr))}
    for key, value in true_zero.items():
        got = data[key]
        if got is None or not abs(got - value) <= 0.25 * step:
            errors.append(f"{key} = {got!r}, true zero {value!r} (grid step {step:.3e})")
    if not errors and data["first_zero_offset_rad"] != (
            data["first_zero_quantum_rad"] - data["first_zero_classical_rad"]):
        errors.append("first_zero_offset_rad is not quantum minus classical")
    return errors


def check_zeros(op, text: str) -> list[str]:
    """zeros: dark points against scipy's J1 zeros and arcsin(k pi / pR), 1e-9 relative."""
    params = op.params
    data = json.loads(text)["data"]
    pr, n = params["p_radius"], params["n"]
    errors = []
    if not abs(data["p_radius"] / pr - 1.0) <= P_RADIUS_REL_TOL:
        errors.append(f"p_radius {data['p_radius']!r} != {pr!r}")
    k = np.arange(1, n + 1)
    want = {"quantum_zeros_rad": 2.0 * np.arcsin(_J1_ZEROS[:n] / (2.0 * pr)),
            "classical_zeros_rad": np.arcsin(k * math.pi / pr)}
    for key, value in want.items():
        got = np.array(data[key], dtype=float)
        if got.shape != value.shape:
            errors.append(f"{key}: {got.size} zeros, expected {n}")
            continue
        rel = float(np.max(np.abs(got / value - 1.0)))
        if not rel <= ZERO_REL_TOL:
            errors.append(f"{key}: relative error {rel:.3e} > {ZERO_REL_TOL:g}")
    factor = want["quantum_zeros_rad"][0] / want["classical_zeros_rad"][0]
    rel = abs(data["overestimation_factor"] / factor - 1.0)
    if not rel <= ZERO_REL_TOL:
        errors.append(f"overestimation_factor: relative error {rel:.3e} > {ZERO_REL_TOL:g}")
    return errors


CHECKS = {
    "single": check_pattern,
    "two-beam": check_pattern,
    "scan": check_scan,
    "compare": check_compare,
    "zeros": check_zeros,
}


def check(op, text: str) -> list[str]:
    """Check one op's output text; unparseable output is a failure, not a crash."""
    try:
        return CHECKS[op.command](op, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
