"""Command-line interface.

Subcommands: single, two-beam, scan, compare, zeros.  ``main`` runs each
through one pipeline: parse the argv; resolve the beam and its pR; compute
the command's data (``_cmd_*``: columns in order, arrays or floats); warn
when a theta column has fewer than 2 samples per fringe; serialize by
``--format``, CSV or JSON (compare and zeros: JSON only), echoing the
resolved configuration; write once, to stdout or atomically to ``--output``.
CSV prints every float as ``.17g``; JSON is the bytes of ``json.dumps(...,
sort_keys=True, indent=2)``, floats in their shortest round-trip repr, laid
out here from the C encoder, which json itself uses only without indent.
Outputs are deterministic: the same configuration produces byte-identical
bytes.  Angles are accepted in radians only.

Only the commands that build arrays (single, two-beam, scan, compare)
import numpy and the modules that compute them, inside the command;
zeros, the help and version texts and every error found before a grid is
allocated run without numpy.

Exit codes: 0 success; 2 for a usage error in the parse, or for a
DomainError, input the caller can fix, raised while resolving or computing,
whether the CLI or the library finds it; 1 for any other exception before
the write, an internal fault, or for a failed write.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from functools import cache, partial

from . import __version__
from .analysis import first_dark_points, overestimation_factor
from .numerics import DomainError, _require_positive
from .potential import _CHANNELS, _MODES, _NORMALIZATIONS, BeamParams, ELECTRON_MASS_EV

# (theta min [rad], theta max [rad], points): the --theta-min, --theta-max
# and --theta-points defaults
_DEFAULT_GRID = (-0.15, 0.15, 2001)

# Fewest grid samples per fringe pi / max(pR, scale * pR) for compare, whose
# only grid-dependent numbers are compare_curves' trapezoid integrals, the two
# areas it matches and l2_diff: from this floor up, the trapezoid area of the
# quantum and the classical curve stays within 2e-4 relative of a 64x finer
# grid on windows of 0.5 to 10 fringes a side (property-tested; worst case
# ~1.4e-4, at a window edge half a fringe out).
_MIN_SAMPLES_PER_FRINGE = 50

# Most grid values one command may compute and print (phi_points *
# theta_points for scan): ~0.6 GB of CSV, checked before any allocation.
_MAX_GRID_VALUES = 10_000_000

# Most dark points ``zeros --n`` may ask for per curve: each one is closed
# form, so the cap bounds the output, ~0.6 MB of JSON, not the compute time.
_MAX_ZEROS = 10_000


# A negative number in any form float() reads from digits, exponent included
# (-1e-3, -.5E+2, -1e308), is an option's value, not an option.  The argparse
# of Python 3.10 and 3.11 takes only the -1 and -1.5 forms for numbers.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    # subparsers are built from the parent parser's class, so every
    # (sub)parser of the command line gets the pattern
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and returned by
    every later one: ``main`` parses each argv with the same parser.  It is
    shared, so callers must not mutate it (add arguments, set defaults);
    ``build_parser.__wrapped__()`` builds a fresh one.
    """
    parser = _Parser(
        prog="wirediff",
        description="Wire-barrier diffraction distributions: quantum vs classical, "
                    "single- and two-beam.",
    )
    parser.add_argument("--version", action="version", version=f"wirediff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    grid_min, grid_max, grid_points = _DEFAULT_GRID
    # every option with its one help string; each command below lists its own
    options = {
        "--wavelength-nm": dict(type=float, default=633.0,
                                help="beam wavelength in nm (default 633)"),
        "--diameter-um": dict(type=float, default=17.0, help="wire diameter in um (default 17)"),
        "--mass-ev": dict(type=float, default=ELECTRON_MASS_EV,
                          help=f"particle rest energy in eV (default electron, {ELECTRON_MASS_EV})"),
        "--theta-min": dict(type=float, default=grid_min,
                            help=f"lower edge of the angular grid in rad (default {grid_min})"),
        "--theta-max": dict(type=float, default=grid_max,
                            help=f"upper edge of the angular grid in rad (default {grid_max})"),
        "--theta-points": dict(type=int, default=grid_points,
                               help=f"number of grid points (default {grid_points})"),
        "--output": dict(type=str, default=None, help="output file path (default: stdout)"),
        "--timestamp": dict(action="store_true",
                            help="embed a generation timestamp in the metadata "
                                 "(off by default so outputs stay byte-identical)"),
        "--alpha": dict(type=float, default=0.1,
                        help="beam intersection angle in rad (default 0.1)"),
        "--phi": dict(type=float, default=0.0, help="interference phase in rad (default 0)"),
        "--mode": dict(choices=_MODES, default="low-energy", help="low-energy (default) or full"),
        "--spin": dict(choices=_CHANNELS, default="no-flip",
                       help="spin channel (default no-flip); flip needs --mode full"),
        "--normalization": dict(choices=_NORMALIZATIONS, default="raw",
                                help="density scaling (default raw)"),
        "--format": dict(choices=["csv", "json"], default="csv",
                         help="output format (default csv)"),
        "--phi-min": dict(type=float, default=0.0,
                          help="lower edge of the phase grid in rad (default 0)"),
        "--phi-max": dict(type=float, default=math.tau,
                          help="upper edge of the phase grid in rad (default 2*pi)"),
        "--phi-points": dict(type=int, default=81,
                             help="number of phase grid points (default 81)"),
        "--radius-scale": dict(type=float, default=1.0,
                               help="multiplier applied to the classical wire radius (default 1)"),
        "--n": dict(type=int, default=1, help="number of dark points per curve (default 1)"),
    }
    beam = ("--wavelength-nm", "--diameter-um", "--mass-ev")
    grid = ("--theta-min", "--theta-max", "--theta-points")
    output = ("--output", "--timestamp")
    pattern = ("--mode", "--spin", "--normalization", "--format")
    for command, summary, flags in (
        ("single", "single-beam angular distribution", beam + grid + output + pattern),
        ("two-beam", "two-beam interference-plus-diffraction distribution",
         beam + grid + output + ("--alpha", "--phi") + pattern),
        ("scan", "two-beam density over a (phi, theta) grid",
         beam + grid + output + ("--alpha", "--phi-min", "--phi-max", "--phi-points") + pattern),
        ("compare", "area-matched quantum vs classical comparison metrics (JSON)",
         beam + grid + output + ("--radius-scale",)),
        ("zeros", "dark-point angles and the radius overestimation factor (JSON)",
         beam + output + ("--n",)),
    ):
        p = sub.add_parser(command, help=summary)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        if "--format" not in flags:
            p.set_defaults(format="json")
    return parser


def _resolve_physics(args) -> tuple[BeamParams, float]:
    # the one place pR is formed from a beam; every command takes it from here
    _require_positive("--wavelength-nm", args.wavelength_nm)
    _require_positive("--diameter-um", args.diameter_um)
    _require_positive("--mass-ev", args.mass_ev)
    try:
        beam = BeamParams.from_wavelength_nm(args.wavelength_nm, mass_ev=args.mass_ev)
    except DomainError:
        # with the flags checked, only the momentum can be out of range: below ~3.5e-299
        # nm it overflows, and below ~5e-315 nm the wavelength in m underflows to 0
        raise DomainError(f"--wavelength-nm {args.wavelength_nm} is too small: the beam "
                          f"momentum 2 pi / wavelength overflows") from None
    p_radius = beam.momentum * (0.5 * args.diameter_um * 1e-6)
    if not (p_radius > 0.0 and math.isfinite(p_radius)):
        raise DomainError(f"--wavelength-nm {args.wavelength_nm} and --diameter-um "
                          f"{args.diameter_um} give pR = {p_radius:g}, which must be "
                          f"positive and finite")
    return beam, p_radius


def _resolve_grids(args, *names: str, max_theta: float = math.pi) -> list:
    # every axis, and the size of their product, is checked before any is allocated;
    # beyond +-pi an angle names no new direction (unit-area would count some twice)
    axes = [tuple(getattr(args, f"{name}_{part}") for part in ("min", "max", "points"))
            for name in names]
    for name, (lo, hi, points) in zip(names, axes):
        if points < 2:
            raise DomainError(f"--{name}-points must be >= 2, got {points}")
        if not math.isfinite(hi - lo):
            raise DomainError(f"--{name}-min, --{name}-max and their distance must be "
                              f"finite, got [{lo}, {hi}]")
        if not (lo < hi):
            raise DomainError(f"--{name}-min must be below --{name}-max, got [{lo}, {hi}]")
        if name == "theta" and not (-max_theta <= lo and hi <= max_theta):
            raise DomainError(f"--theta-min and --theta-max must lie in [{-max_theta!r}, "
                              f"{max_theta!r}] rad for {args.command}, got [{lo}, {hi}]")
    values = math.prod(points for _, _, points in axes)
    if values > _MAX_GRID_VALUES:
        flags = " * ".join(f"--{name}-points" for name in names)
        raise DomainError(f"the grid has {values:,} values ({flags}), above the cap of "
                          f"{_MAX_GRID_VALUES:,}")
    import numpy as np

    return [np.linspace(*axis) for axis in axes]


def _samples_per_fringe(thetas, p_radius: float) -> tuple[float, float]:
    # grid samples per fringe, and the fringe pi / pR [rad] of the curve with this pR
    fringe = math.pi / p_radius
    return fringe / ((thetas[-1] - thetas[0]) / (thetas.size - 1)), fringe


def _warn_if_aliased(thetas, p_radius: float) -> None:
    # each printed value is exact at its theta; between samples the pattern is unresolved
    per_fringe, fringe = _samples_per_fringe(thetas, p_radius)
    if per_fringe < 2.0:
        import logging  # only here: importing it adds ~2 ms to every start-up

        logging.getLogger("wirediff").warning(
            "the theta grid has %.3g samples per fringe of %.3g rad (pi / pR), below the "
            "Nyquist rate of 2: raise --theta-points or narrow the theta range",
            per_fringe, fringe)


def _base_config(args) -> dict:
    # every parsed option of the command except how and where output is written
    cfg = {key: value for key, value in vars(args).items()
           if key not in ("output", "timestamp", "format")}
    cfg["version"] = __version__
    if args.timestamp:
        import datetime  # only here, as logging in _warn_if_aliased

        cfg["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return cfg


def _csv(config: dict, data: dict) -> str:
    """CSV of a command's data, header from its keys: a pattern (one density
    row) or, when ``phi_rad`` is present, a scan (one density row per phi;
    rows phi-major, theta ascending), floats with 17 significant digits
    (lossless round trip), after a ``# config:`` line when config is set.

    Each value is formatted once, by one ``%`` per block: a pattern is one
    ``"%.17g,%.17g\\n"`` template over its interleaved theta and density
    values; a scan formats each phi and theta once, into the template of
    its phi block, and those strings never contain ``%``.  A full-period
    scan repeats density rows bit for bit (phi = 2 pi reduces to 0, and
    phases reduced to exact negatives share the half-angle weights cos^2
    and sin^2), so each distinct row is formatted once: a repeat takes the
    first block's text with its own phi lead.  Rows are keyed by their bytes, so -0.0 and 0.0
    stay apart.
    """
    import numpy as np

    lines = ["# config: " + json.dumps(config, sort_keys=True) + "\n"] if config else []
    lines.append(",".join(data) + "\n")
    thetas, density, phis = data["theta_rad"], data["density"], data.get("phi_rad")
    if phis is None:
        values = np.stack((thetas, density), axis=1).ravel().tolist()
        lines.append("%.17g,%.17g\n" * thetas.size % tuple(values))
        return "".join(lines)
    rows = [format(t, ".17g") + ",%.17g\n" for t in thetas.tolist()]
    leads = [format(p, ".17g") + "," for p in phis.tolist()]
    blocks = {}  # a row's bytes -> the first lead it had, and its block after that lead
    for lead, row in zip(leads, density.reshape(len(leads), len(rows))):
        key = row.tobytes()
        if key in blocks:
            # every line of a block starts with its lead, and "\n" only ends lines
            first, block = blocks[key]
            block = block.replace("\n" + first, "\n" + lead)
        else:
            block = lead.join(rows) % tuple(row.tolist())
            blocks[key] = lead, block
        lines += (lead, block)
    return "".join(lines)


@cache
def _json_encode(indent: str):
    # json's C encoder, which it runs only when indent is None; the item
    # separator carries the newline and indent, so one call lays out a
    # container of scalars one item per line
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + indent, ": ")).encode


def _json_value(value, indent: str) -> str:
    # value as json.dumps(sort_keys=True, indent=2) lays it out after a line's
    # indent: one encoder call for a scalar, a 1-D array or tuple, or a dict
    # of scalars; a 2-D array or a dict holding containers item by item, each
    # distinct row of a 2-D array once (keyed by its bytes, as _csv's scan rows);
    # an array is told apart by its ndim, so the writer needs no numpy
    inner = indent + "  "
    if getattr(value, "ndim", 0) > 1:
        keys = [row.tobytes() for row in value]
        rows = {key: _json_value(row, inner) for key, row in dict(zip(keys, value)).items()}
        text = "[" + (",\n" + inner).join([rows[key] for key in keys]) + "]"
    elif hasattr(value, "ndim"):
        text = _json_encode(inner)(value.tolist())
    elif isinstance(value, dict) and any(isinstance(v, (dict, list, tuple)) or hasattr(v, "ndim")
                                         for v in value.values()):
        text = "{" + (",\n" + inner).join(
            _json_encode(inner)(key) + ": " + _json_value(value[key], inner)
            for key in sorted(value)) + "}"
    else:
        text = _json_encode(inner)(value)
    if text in ("[]", "{}") or text[0] not in "[{":
        return text
    return text[0] + "\n" + inner + text[1:-1] + "\n" + indent + text[-1]


def _json_doc(config: dict, data: dict) -> str:
    """``json.dumps({"metadata": config, "data": data}, sort_keys=True,
    indent=2) + "\\n"``, byte for byte: keys sorted, one array element per
    line, a 2-D array nested by rows.  Keys are strings; a data value is a
    float or an array (an ndarray of any ndim, or a flat tuple), a config
    value a scalar.
    """
    # the two top-level keys are written directly, so the ~20 us zeros and
    # compare documents cost no more than under json.dumps
    return ('{\n  "data": ' + _json_value(data, "  ") + ',\n  "metadata": '
            + _json_value(config, "  ") + "\n}\n")


def _pattern(args, beam, p_radius, thetas, *geometry) -> dict:
    # the single-beam command, or with the geometry (alpha, phi) the two-beam one,
    # or with (alpha, phis) the scan, one row per phase; each array command
    # imports numpy and the compute modules after its grid checks
    from .electron import amplitudes, dsigma_dtheta
    from .patterns import sample_pattern
    from .twobeam import dsigma_dtheta_two_beam

    amplitude = partial(amplitudes, beam, p_radius, mode=args.mode, channel=args.spin)
    density = (partial(dsigma_dtheta_two_beam, amplitude, *geometry) if geometry
               else partial(dsigma_dtheta, amplitude))
    return {"theta_rad": thetas, "density": sample_pattern(density, thetas, args.normalization)}


def _cmd_single(args, beam, p_radius) -> dict:
    return _pattern(args, beam, p_radius, *_resolve_grids(args, "theta"))


def _cmd_two_beam(args, beam, p_radius) -> dict:
    return _pattern(args, beam, p_radius, *_resolve_grids(args, "theta"), args.alpha, args.phi)


def _cmd_scan(args, beam, p_radius) -> dict:
    phis, thetas = _resolve_grids(args, "phi", "theta")
    return {"phi_rad": phis, **_pattern(args, beam, p_radius, thetas, args.alpha, phis)}


def _cmd_compare(args, beam, p_radius) -> dict:
    # beyond +-pi/2 the classical sinc(pR sin theta) folds backscatter onto forward
    thetas, = _resolve_grids(args, "theta", max_theta=math.pi / 2)
    _require_positive("--radius-scale", args.radius_scale)
    classical_pr = args.radius_scale * p_radius
    per_fringe, fringe = _samples_per_fringe(thetas, max(p_radius, classical_pr))
    if per_fringe < _MIN_SAMPLES_PER_FRINGE:
        raise DomainError(
            f"the theta grid has {per_fringe:.3g} samples per fringe of {fringe:.3g} rad "
            f"(pi / (max(1, radius scale) * pR)); compare needs at least "
            f"{_MIN_SAMPLES_PER_FRINGE}: raise --theta-points or narrow the theta range")
    # exact dark points, inside the theta window or not; none in (0, pi/2) is a DomainError
    zero_quantum = first_dark_points(p_radius, "quantum")[0]
    try:
        zero_classical = first_dark_points(classical_pr, "classical")[0]
    except DomainError:
        raise DomainError(f"--radius-scale {args.radius_scale} makes the classical pR "
                          f"{classical_pr:g}, with no dark point in (0, pi/2)") from None
    from .classical import fraunhofer_amplitudes
    from .electron import amplitudes, dsigma_dtheta
    from .patterns import compare_curves, sample_pattern

    quantum = sample_pattern(partial(dsigma_dtheta, partial(amplitudes, beam, p_radius)), thetas)
    classical = sample_pattern(
        partial(dsigma_dtheta, partial(fraunhofer_amplitudes, classical_pr)), thetas)
    return {
        **compare_curves(thetas, quantum, classical),
        "first_zero_offset_rad": zero_quantum - zero_classical,
        "first_zero_quantum_rad": zero_quantum,
        "first_zero_classical_rad": zero_classical,
    }


def _cmd_zeros(args, beam, p_radius) -> dict:
    if not 1 <= args.n <= _MAX_ZEROS:
        raise DomainError(f"--n must be in [1, {_MAX_ZEROS:,}], got {args.n}")
    quantum = first_dark_points(p_radius, "quantum", args.n)
    classical = first_dark_points(p_radius, "classical", args.n)
    return {
        "p_radius": p_radius,
        "quantum_zeros_rad": quantum,
        "classical_zeros_rad": classical,
        "overestimation_factor": overestimation_factor(p_radius),
    }


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
    import tempfile  # only here, as logging in _warn_if_aliased

    directory = os.path.dirname(os.path.abspath(path))
    os.umask(umask := os.umask(0))  # reads the umask, which os has no getter for
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".wirediff-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            # mkstemp's file is 0600; give it the mode open(path, "w") would
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        beam, p_radius = _resolve_physics(args)
        data = _COMMANDS[args.command](args, beam, p_radius)
        if "theta_rad" in data:
            _warn_if_aliased(data["theta_rad"], p_radius)
        text = (_json_doc if args.format == "json" else _csv)(_base_config(args), data)
    except DomainError as exc:
        print(f"wirediff: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"wirediff: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
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
