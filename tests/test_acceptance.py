"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values (run with -s to see them all).
"""

import json
import math
import time
from functools import partial

import numpy as np
import pytest

from wirediff.analysis import first_dark_points, overestimation_factor
from wirediff.classical import fraunhofer_amplitudes
from wirediff.cli import main
from wirediff.electron import amplitudes, dsigma_dtheta
from wirediff.numerics import disk_amplitude
from wirediff.patterns import Pattern, default_grid, sample_pattern
from wirediff.potential import BeamParams
from wirediff.twobeam import dsigma_dtheta_two_beam

from conftest import two_j1_over_x
from oracles import disk_ft_oracle

TAU = 2.0 * math.pi


def _report(criterion: str, checks: list[tuple[str, bool]]):
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] {criterion}")
    for label, ok in checks:
        if not ok:
            print(f"       failed: {label}")
    assert not failed, f"{criterion}: failed {failed}"


@pytest.fixture(scope="module")
def default_setup():
    beam = BeamParams.from_wavelength_nm(633.0)
    return beam, beam.momentum * 8.5e-6


def test_criterion_1_overestimation_factor(default_setup, j1_zeros_oracle):
    _, p_radius = default_setup
    start = time.perf_counter()
    factor = overestimation_factor(p_radius)
    elapsed = time.perf_counter() - start
    asymptotic = j1_zeros_oracle[0] / math.pi
    _report(
        "criterion 1: overestimation factor 1.219 +/- 0.002, asymptote j11/pi",
        [
            (f"factor {factor:.6f} within 1.219 +/- 0.002", abs(factor - 1.219) <= 2e-3),
            (f"asymptote {asymptotic:.6f} = 1.21967 +/- 1e-5",
             abs(asymptotic - 1.21967) <= 1e-5),
            (f"large-pR factor approaches the asymptote",
             abs(overestimation_factor(1e5) - asymptotic) <= 1e-5),
            (f"runtime {elapsed:.3f}s < 1s", elapsed < 1.0),
        ],
    )


def test_criterion_2_fringe_structure(default_setup):
    beam, p_radius = default_setup
    thetas = default_grid()
    quantum = sample_pattern(partial(dsigma_dtheta, partial(amplitudes, beam, p_radius)), thetas)
    classical = sample_pattern(partial(dsigma_dtheta, partial(fraunhofer_amplitudes, p_radius)),
                               thetas)

    q_peak_theta = float(quantum.thetas[np.argmax(quantum.density)])
    c_peak_theta = float(classical.thetas[np.argmax(classical.density)])
    quantum_zero = first_dark_points(p_radius, "quantum", 1)[0]
    classical_zero = first_dark_points(p_radius, "classical", 1)[0]
    # the classical curve scaled to the quantum area, as compare_curves scales it
    matched = Pattern(thetas, classical.density * (quantum.area() / classical.area()))
    area_ratio = matched.area() / quantum.area()

    _report(
        "criterion 2: default-configuration fringe structure (peaks, dark points, areas)",
        [
            (f"quantum peak at theta={q_peak_theta:+.2e}", abs(q_peak_theta) < 1e-12),
            (f"classical peak at theta={c_peak_theta:+.2e}", abs(c_peak_theta) < 1e-12),
            (f"quantum first dark {quantum_zero:.6f} = 0.045420 +/- 1e-5",
             abs(quantum_zero - 0.045420) <= 1e-5),
            (f"classical first dark {classical_zero:.6f} = 0.037247 +/- 1e-5",
             abs(classical_zero - 0.037247) <= 1e-5),
            ("quantum dark point lies outward of classical",
             quantum_zero > classical_zero),
            (f"areas match to 1e-9 relative (ratio-1 = {area_ratio - 1.0:+.2e})",
             abs(area_ratio - 1.0) <= 1e-9),
        ],
    )


def test_criterion_3_special_function_identities(j1_zeros_oracle):
    start = time.perf_counter()
    xs = np.linspace(0.0, 300.0, 1000)
    worst = 0.0
    for x in xs:
        want = two_j1_over_x(float(x))
        got = disk_amplitude(float(x))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))

    worst_disk = 0.0
    for q_r in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
        value = disk_ft_oracle(q_r)
        worst_disk = max(
            worst_disk,
            abs(value.real - disk_amplitude(q_r)),
            abs(value.imag),
        )
    elapsed = time.perf_counter() - start

    _report(
        "criterion 3: special-function identity suite",
        [
            (f"identity vs Bessel oracle on 1000 pts, worst {worst:.2e} <= 1e-14",
             worst <= 1e-14),
            (f"disk quadrature vs disk_amplitude, worst {worst_disk:.2e} <= 1e-8",
             worst_disk <= 1e-8),
            (f"runtime {elapsed:.2f}s < 10s", elapsed < 10.0),
        ],
    )


def test_criterion_4_low_energy_reduction(default_setup):
    beam, p_radius = default_setup
    thetas = default_grid()
    full, low = (sample_pattern(partial(dsigma_dtheta, partial(amplitudes, beam, p_radius,
                                                               mode=mode)),
                                thetas, "peak-one")
                 for mode in ("full", "low-energy"))
    pointwise = float(np.max(np.abs(full.density - low.density)))

    flip, noflip = (np.array([dsigma_dtheta(amplitude, float(t)) for t in thetas])
                    for amplitude in (partial(amplitudes, beam, p_radius, mode="full", channel=c)
                                      for c in ("flip", "no-flip")))
    flip_weight = float(np.trapezoid(flip, thetas) / np.trapezoid(noflip, thetas))
    momentum_ratio = beam.pc_ev / beam.mass_ev

    _report(
        "criterion 4: low-energy reduction of the full-energy channels",
        [
            (f"pc/mc^2 = {momentum_ratio:.2e} (optical regime)", momentum_ratio < 1e-4),
            (f"peak-normalized full vs low-energy, max |diff| {pointwise:.2e} <= 1e-8",
             pointwise <= 1e-8),
            (f"flip channel relative weight {flip_weight:.2e} < 1e-12",
             flip_weight < 1e-12),
            (f"heuristic bound (pc/mc^2)^4 = {momentum_ratio**4:.2e} also > weight",
             flip_weight < momentum_ratio**4),
        ],
    )


def test_criterion_5_two_beam_properties(default_setup):
    beam, p_radius = default_setup
    start = time.perf_counter()

    rng = np.random.default_rng(20260809)
    n_samples = 10_000
    p_rs = rng.uniform(1.0, 200.0, n_samples)
    alphas = rng.uniform(0.0, 0.5, n_samples)
    phis = rng.uniform(-TAU, 2.0 * TAU, n_samples)
    thetas = rng.uniform(-0.7, 0.7, n_samples)
    non_negative = all(
        dsigma_dtheta_two_beam(partial(amplitudes, BeamParams(pr), pr), a, ph, th)
        >= 0.0
        for pr, a, ph, th in zip(p_rs, alphas, phis, thetas)
    )

    even_ok = True
    for pr, a, ph, th in zip(p_rs[:200], alphas[:200], phis[:200], thetas[:200]):
        cfg = (a, ph)
        amplitude = partial(amplitudes, BeamParams(pr), pr)
        lhs = dsigma_dtheta_two_beam(amplitude, *cfg, th)
        rhs = dsigma_dtheta_two_beam(amplitude, *cfg, -th)
        if abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs), 1e-300):
            even_ok = False
            break

    amplitude = partial(amplitudes, beam, p_radius)
    # exact periodicity at phases whose phi + 2*pi is exactly representable
    periodic_ok = all(
        dsigma_dtheta_two_beam(amplitude, 0.1, ph, 0.0123)
        == dsigma_dtheta_two_beam(amplitude, 0.1, ph + TAU, 0.0123)
        for ph in (0.0, 0.25, 0.5, 1.0, 1.5, -0.5)
    )

    dark_center = dsigma_dtheta_two_beam(amplitude, 0.1, math.pi, 0.0)

    degenerate_ok = all(
        dsigma_dtheta_two_beam(amplitude, 0.0, 0.0, th)
        == pytest.approx(4.0 * dsigma_dtheta(amplitude, th), rel=1e-12)
        for th in (0.0, 0.01, 0.045, 0.1)
    )

    grid = default_grid()
    scan = dsigma_dtheta_two_beam(amplitude, 0.1, np.linspace(0.0, TAU, 41), grid)
    masses = np.trapezoid(scan, grid, axis=1)
    elapsed = time.perf_counter() - start

    _report(
        "criterion 5: two-beam interference properties",
        [
            (f"non-negative on {n_samples} randomized samples", non_negative),
            ("theta-evenness to 1e-12 relative", even_ok),
            ("phi-periodicity exact", periodic_ok),
            (f"destructive center at phi=pi: {dark_center:.2e}", dark_center < 1e-20),
            ("alpha=0 degenerates to 4x single beam", degenerate_ok),
            ("scan mass maximal at phi=0 (or 2*pi)",
             int(np.argmax(masses)) in (0, 40)),
            ("scan mass minimal at phi=pi", int(np.argmin(masses)) == 20),
            (f"runtime {elapsed:.2f}s < 30s", elapsed < 30.0),
        ],
    )


def test_criterion_6_rescaling_alignment(default_setup):
    _, p_radius = default_setup
    factor = overestimation_factor(p_radius)
    # the multiplier convention stretches the classical argument, so the
    # aligning direction applies the factor as an effective pR / factor
    rescaled_zero = first_dark_points(p_radius / factor, "classical", 1)[0]
    quantum_zero = first_dark_points(p_radius, "quantum", 1)[0]
    residual = abs(rescaled_zero - quantum_zero)
    # equivalent statement, in the direction the rescaling experiment quotes:
    # enlarging the quantum radius by the factor lands on the classical zero
    quantum_rescaled = first_dark_points(factor * p_radius, "quantum", 1)[0]
    classical_zero = first_dark_points(p_radius, "classical", 1)[0]
    residual_rev = abs(quantum_rescaled - classical_zero)
    _report(
        "criterion 6: rescaled classical curve aligns first dark points",
        [
            (f"factor {factor:.6f} applied to classical: residual {residual:.2e} < 1e-4",
             residual < 1e-4),
            (f"reverse direction residual {residual_rev:.2e} < 1e-4",
             residual_rev < 1e-4),
        ],
    )


def test_criterion_7_cli_determinism_and_golden_values(capsys, tmp_path):
    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    single_a = run("single")
    single_b = run("single")
    two_a = run("two-beam")
    two_b = run("two-beam")
    scan_a = run("scan")
    scan_b = run("scan")

    single_lines = single_a.split("\n")
    two_lines = two_a.split("\n")
    scan_lines = scan_a.split("\n")

    zeros_doc = json.loads(run("zeros"))
    q0 = zeros_doc["data"]["quantum_zeros_rad"][0]
    c0 = zeros_doc["data"]["classical_zeros_rad"][0]
    factor = zeros_doc["data"]["overestimation_factor"]

    _report(
        "criterion 7: CLI determinism, schemas, golden dark-point values",
        [
            ("single: byte-identical across runs", single_a == single_b),
            ("two-beam: byte-identical across runs", two_a == two_b),
            ("scan: byte-identical across runs", scan_a == scan_b),
            ("single CSV schema", single_lines[1] == "theta_rad,density"
             and single_lines[0].startswith("# config: ")
             and len([l for l in single_lines[2:] if l]) == 2001),
            ("two-beam CSV schema", two_lines[1] == "theta_rad,density"),
            ("scan CSV schema", scan_lines[1] == "phi_rad,theta_rad,density"
             and len([l for l in scan_lines[2:] if l]) == 81 * 2001),
            (f"golden quantum zero {q0:.6f} = 0.045420 +/- 1e-5",
             abs(q0 - 0.045420) <= 1e-5),
            (f"golden classical zero {c0:.6f} = 0.037247 +/- 1e-5",
             abs(c0 - 0.037247) <= 1e-5),
            (f"golden factor {factor:.4f} = 1.219 +/- 0.002",
             abs(factor - 1.219) <= 2e-3),
        ],
    )
