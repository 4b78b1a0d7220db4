"""Command-line interface.

Subcommands: single, two-beam, scan, compare, zeros.  Pattern commands
emit CSV by default (JSON on request); zeros and compare emit JSON.
Outputs are deterministic: the same configuration produces byte-identical
bytes, and every file embeds the resolved configuration that generated it.
Angles are accepted in radians only.

Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import tempfile
from functools import partial

import numpy as np

from . import __version__
from .analysis import compare_curves, first_dark_points, match_areas
from .classical import ClassicalConfig, pattern_classical
from .electron import FLIP, NO_FLIP, pattern_single
from .patterns import Normalization
from .potential import BeamParams, WirePotential, ELECTRON_MASS_EV
from .twobeam import TwoBeamConfig, pattern_two_beam, phi_theta_scan

TAU = 2.0 * math.pi

_NORMALIZATIONS = {
    "raw": Normalization.RAW,
    "peak-one": Normalization.PEAK_ONE,
    "unit-area": Normalization.UNIT_AREA,
}

_SPIN_CHANNELS = {"no-flip": NO_FLIP, "flip": FLIP, "sum": None}

# Fewest grid samples per classical fringe pi / (scale * pR) for which
# ``first_dark_angle`` still finds the first dark point of both compared
# curves: a zero halfway between two samples then leaves the nearer sample
# at sinc^2(pi + pi/100) < 1e-4 of the peak, the detection threshold.
_MIN_SAMPLES_PER_FRINGE = 50


class ConfigError(ValueError):
    """Invalid command configuration (maps to exit code 2)."""


def _mode_value(text: str) -> str:
    aliases = {"low-energy": "low-energy", "lowe": "low-energy",
               "low_energy": "low-energy", "full": "full"}
    key = text.strip().lower()
    if key not in aliases:
        raise argparse.ArgumentTypeError(
            f"invalid mode {text!r} (choose from low-energy, full)"
        )
    return aliases[key]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wirediff",
        description="Wire-barrier diffraction distributions: quantum vs classical, "
                    "single- and two-beam.",
    )
    parser.add_argument("--version", action="version", version=f"wirediff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, grid: bool = True) -> None:
        p.add_argument("--wavelength-nm", type=float, default=633.0,
                       help="beam wavelength in nm (default 633)")
        p.add_argument("--diameter-um", type=float, default=17.0,
                       help="wire diameter in um (default 17)")
        p.add_argument("--mass-ev", type=float, default=ELECTRON_MASS_EV,
                       help=f"particle rest energy in eV (default electron, {ELECTRON_MASS_EV})")
        if grid:
            p.add_argument("--theta-min", type=float, default=-0.15,
                           help="lower edge of the angular grid in rad (default -0.15)")
            p.add_argument("--theta-max", type=float, default=0.15,
                           help="upper edge of the angular grid in rad (default 0.15)")
            p.add_argument("--theta-points", type=int, default=2001,
                           help="number of grid points (default 2001)")
        p.add_argument("--output", type=str, default=None,
                       help="output file path (default: stdout)")
        p.add_argument("--timestamp", action="store_true",
                       help="embed a generation timestamp in the metadata "
                            "(off by default so outputs stay byte-identical)")

    p_single = sub.add_parser("single", help="single-beam angular distribution")
    add_common(p_single)
    p_single.add_argument("--mode", type=_mode_value, default="low-energy",
                          help="low-energy (default) or full")
    p_single.add_argument("--spin", choices=sorted(_SPIN_CHANNELS), default="no-flip",
                          help="spin channel for full mode (default no-flip)")
    p_single.add_argument("--normalization", choices=sorted(_NORMALIZATIONS), default="raw")
    p_single.add_argument("--format", choices=["csv", "json"], default="csv")

    p_two = sub.add_parser("two-beam", help="two-beam interference-plus-diffraction distribution")
    add_common(p_two)
    p_two.add_argument("--alpha", type=float, default=0.1,
                       help="beam intersection angle in rad (default 0.1)")
    p_two.add_argument("--phi", type=float, default=0.0,
                       help="interference phase in rad (default 0)")
    p_two.add_argument("--mode", type=_mode_value, default="low-energy")
    p_two.add_argument("--spin", choices=sorted(_SPIN_CHANNELS), default="no-flip")
    p_two.add_argument("--normalization", choices=sorted(_NORMALIZATIONS), default="raw")
    p_two.add_argument("--format", choices=["csv", "json"], default="csv")

    p_scan = sub.add_parser("scan", help="low-energy two-beam density over a (phi, theta) grid")
    add_common(p_scan)
    p_scan.add_argument("--alpha", type=float, default=0.1)
    p_scan.add_argument("--phi-min", type=float, default=0.0,
                        help="lower edge of the phase grid in rad (default 0)")
    p_scan.add_argument("--phi-max", type=float, default=TAU,
                        help="upper edge of the phase grid in rad (default 2*pi)")
    p_scan.add_argument("--phi-points", type=int, default=81,
                        help="number of phase grid points (default 81)")
    p_scan.add_argument("--format", choices=["csv", "json"], default="csv")

    p_cmp = sub.add_parser("compare",
                           help="area-matched quantum vs classical comparison metrics (JSON)")
    add_common(p_cmp)
    p_cmp.add_argument("--radius-scale", type=float, default=1.0,
                       help="multiplier applied to the classical wire radius (default 1)")
    p_cmp.add_argument("--format", choices=["json"], default="json")

    p_zeros = sub.add_parser("zeros",
                             help="dark-point angles and the radius overestimation factor (JSON)")
    add_common(p_zeros, grid=False)
    p_zeros.add_argument("--n", type=int, default=1,
                         help="number of dark points per curve (default 1)")
    p_zeros.add_argument("--format", choices=["json"], default="json")

    return parser


def _resolve_physics(args) -> tuple[BeamParams, WirePotential]:
    if not (args.wavelength_nm > 0.0 and math.isfinite(args.wavelength_nm)):
        raise ConfigError(f"--wavelength-nm must be positive, got {args.wavelength_nm}")
    if not (args.diameter_um > 0.0 and math.isfinite(args.diameter_um)):
        raise ConfigError(f"--diameter-um must be positive, got {args.diameter_um}")
    if not (args.mass_ev > 0.0 and math.isfinite(args.mass_ev)):
        raise ConfigError(f"--mass-ev must be positive, got {args.mass_ev}")
    beam = BeamParams.from_wavelength_nm(args.wavelength_nm, mass_ev=args.mass_ev)
    wire = WirePotential.from_diameter_um(args.diameter_um)
    return beam, wire


def _resolve_grid(args, name: str) -> np.ndarray:
    lo, hi, points = (getattr(args, f"{name}_{part}") for part in ("min", "max", "points"))
    if points < 2:
        raise ConfigError(f"--{name}-points must be >= 2, got {points}")
    if not (lo < hi):
        raise ConfigError(f"--{name}-min must be below --{name}-max, got [{lo}, {hi}]")
    return np.linspace(lo, hi, points)


def _base_config(args) -> dict:
    # every parsed option of the command except how and where output is written
    cfg = {key: value for key, value in vars(args).items()
           if key not in ("output", "timestamp", "format")}
    cfg["version"] = __version__
    if args.timestamp:
        cfg["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return cfg


def _csv(config: dict, header: str, *columns: np.ndarray) -> str:
    """CSV of equal-length columns, floats with 17 significant digits
    (lossless round trip), after a ``# config:`` line when config is set."""
    lines = ["# config: " + json.dumps(config, sort_keys=True)] if config else []
    lines.append(header)
    cells = [[format(x, ".17g") for x in column.tolist()] for column in columns]
    lines.extend(",".join(row) for row in zip(*cells))
    return "\n".join(lines) + "\n"


def _json_doc(config: dict, data: dict) -> str:
    return json.dumps({"metadata": config, "data": data}, sort_keys=True, indent=2) + "\n"


def _pattern_command(args, build) -> str:
    # parse -> call -> serialize, shared by the single- and two-beam commands
    beam, wire = _resolve_physics(args)
    pattern = build(beam, wire, thetas=_resolve_grid(args, "theta"), mode=args.mode,
                    channel=_SPIN_CHANNELS[args.spin],
                    normalization=_NORMALIZATIONS[args.normalization])
    config = _base_config(args)
    if args.format == "json":
        return _json_doc(config, {"theta_rad": pattern.thetas.tolist(),
                                  "density": pattern.density.tolist()})
    return _csv(config, "theta_rad,density", pattern.thetas, pattern.density)


def _cmd_single(args) -> str:
    return _pattern_command(args, pattern_single)


def _cmd_two_beam(args) -> str:
    if not (math.isfinite(args.alpha) and args.alpha >= 0.0):
        raise ConfigError(f"--alpha must be >= 0, got {args.alpha}")
    if not math.isfinite(args.phi):
        raise ConfigError(f"--phi must be finite, got {args.phi}")
    return _pattern_command(
        args, partial(pattern_two_beam, cfg=TwoBeamConfig(alpha=args.alpha, phi=args.phi)))


def _cmd_scan(args) -> str:
    beam, wire = _resolve_physics(args)
    thetas = _resolve_grid(args, "theta")
    if not (math.isfinite(args.alpha) and args.alpha >= 0.0):
        raise ConfigError(f"--alpha must be >= 0, got {args.alpha}")
    phis = _resolve_grid(args, "phi")
    scan = phi_theta_scan(beam.momentum * wire.radius, args.alpha, phis, thetas)
    config = _base_config(args)
    if args.format == "json":
        return _json_doc(config, {"phi_rad": scan.phis.tolist(), "theta_rad": scan.thetas.tolist(),
                                  "density": scan.density.tolist()})
    return _csv(config, "phi_rad,theta_rad,density", np.repeat(scan.phis, scan.thetas.size),
                np.tile(scan.thetas, scan.phis.size), scan.density.ravel())


def _cmd_compare(args) -> str:
    beam, wire = _resolve_physics(args)
    thetas = _resolve_grid(args, "theta")
    if not (math.isfinite(args.radius_scale) and args.radius_scale > 0.0):
        raise ConfigError(f"--radius-scale must be positive, got {args.radius_scale}")
    p_radius = beam.momentum * wire.radius
    fringe = math.pi / (max(1.0, args.radius_scale) * p_radius)
    step = (thetas[-1] - thetas[0]) / (thetas.size - 1)
    if step > fringe / _MIN_SAMPLES_PER_FRINGE:
        raise ConfigError(
            f"the theta grid has {fringe / step:.3g} samples per fringe of {fringe:.3g} rad "
            f"(pi / (max(1, radius scale) * pR)); compare needs at least "
            f"{_MIN_SAMPLES_PER_FRINGE}: raise --theta-points or narrow the theta range")
    quantum = pattern_single(beam, wire, thetas, mode="low-energy")
    classical = pattern_classical(
        ClassicalConfig(p_radius=p_radius, radius_scale=args.radius_scale), thetas
    )
    matched = match_areas(quantum, classical)
    comparison = compare_curves(quantum, matched)

    def _jsonable(value):
        # strict JSON has no NaN; a missing dark point serializes as null
        if value is None or (isinstance(value, float) and math.isnan(value)):
            return None
        return value

    data = {
        "max_abs_diff": comparison.max_abs_diff,
        "l2_diff": comparison.l2_diff,
        "first_zero_offset_rad": _jsonable(comparison.first_zero_offset_rad),
        "first_zero_quantum_rad": _jsonable(comparison.first_zero_a_rad),
        "first_zero_classical_rad": _jsonable(comparison.first_zero_b_rad),
    }
    config = _base_config(args)
    return _json_doc(config, data)


def _cmd_zeros(args) -> str:
    beam, wire = _resolve_physics(args)
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")
    p_radius = beam.momentum * wire.radius
    quantum = first_dark_points(p_radius, "quantum", args.n)
    classical = first_dark_points(p_radius, "classical", args.n)
    data = {
        "p_radius": p_radius,
        "quantum_zeros_rad": [float(z) for z in quantum.zeros],
        "classical_zeros_rad": [float(z) for z in classical.zeros],
        # overestimation_factor's ratio, from the searches above (zeros[0] is the n = 1 zero)
        "overestimation_factor": float(quantum.zeros[0] / classical.zeros[0]),
    }
    config = _base_config(args)
    return _json_doc(config, data)


_COMMANDS = {
    "single": _cmd_single,
    "two-beam": _cmd_two_beam,
    "scan": _cmd_scan,
    "compare": _cmd_compare,
    "zeros": _cmd_zeros,
}


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".wirediff-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"wirediff: configuration error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"wirediff: {exc}", file=sys.stderr)
        return 1
    try:
        _write_output(text, args.output)
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not our error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 1
    except OSError as exc:
        target = "stdout" if args.output is None else repr(args.output)
        print(f"wirediff: cannot write output to {target}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
