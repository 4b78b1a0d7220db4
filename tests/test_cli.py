import argparse
import hashlib
import json
import logging
import math
import os
import stat
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import reference_csv
from wirediff import cli
from wirediff.analysis import first_dark_points
from wirediff.cli import _MAX_GRID_VALUES, _MAX_ZEROS, _csv, _json_doc, build_parser, main
from wirediff.potential import _CHANNELS, _MODES, _NORMALIZATIONS, BeamParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSingleCommand:
    def test_csv_schema_and_peak(self, capsys):
        code, out, err = run_cli(
            capsys, "single", "--wavelength-nm", "633", "--diameter-um", "17",
            "--normalization", "peak-one",
        )
        assert code == 0
        lines = out.split("\n")
        assert lines[0].startswith("# config: ")
        assert lines[1] == "theta_rad,density"
        rows = [line for line in lines[2:] if line]
        assert len(rows) == 2001
        # the theta = 0 row carries density exactly 1
        center = rows[1000].split(",")
        assert abs(float(center[0])) < 1e-12
        assert float(center[1]) == 1.0
        assert out.endswith("\n")

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, "single")
        _, second, _ = run_cli(capsys, "single")
        assert first == second

    def test_csv_numbers_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "single", "--theta-points", "11")
        rows = [line for line in out.split("\n")[2:] if line]
        thetas = np.linspace(-0.15, 0.15, 11)
        for row, theta in zip(rows, thetas):
            assert float(row.split(",")[0]) == theta

    def test_json_round_trip_bit_exact(self, capsys):
        code, out, _ = run_cli(capsys, "single", "--format", "json",
                               "--theta-points", "101")
        doc = json.loads(out)
        assert doc["metadata"]["command"] == "single"
        assert doc["metadata"]["wavelength_nm"] == 633.0
        from wirediff import amplitudes, dsigma_dtheta, sample_pattern

        beam = BeamParams.from_wavelength_nm(633.0)
        pattern = sample_pattern(partial(dsigma_dtheta,
                                         partial(amplitudes, beam, beam.momentum * 8.5e-6)),
                                 np.linspace(-0.15, 0.15, 101))
        assert doc["data"]["density"] == [float(d) for d in pattern.density]

    def test_full_mode_spin_channels(self, capsys):
        for spin in ("no-flip", "flip", "sum"):
            code, out, _ = run_cli(capsys, "single", "--mode", "full",
                                   "--spin", spin, "--theta-points", "21")
            assert code == 0

    def test_output_file_written_atomically(self, capsys, tmp_path):
        target = tmp_path / "single.csv"
        code, out, _ = run_cli(capsys, "single", "--output", str(target),
                               "--theta-points", "21")
        assert code == 0
        assert out == ""
        content = target.read_text(encoding="utf-8")
        assert content.split("\n")[1] == "theta_rad,density"
        assert "\r" not in content
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".wirediff")]
        assert leftovers == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_output_file_mode_follows_umask(self, capsys, tmp_path, umask, mode):
        # as open(path, "w") would: 0666 minus the umask, for a new file and
        # for one rewritten in place
        target = tmp_path / "z.json"
        old = os.umask(umask)
        try:
            for _ in range(2):
                assert run_cli(capsys, "zeros", "--output", str(target))[0] == 0
                assert stat.S_IMODE(target.stat().st_mode) == mode
        finally:
            os.umask(old)

    def test_unwritable_output_is_runtime_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "single.csv"
        code, _, err = run_cli(capsys, "single", "--output", str(target),
                               "--theta-points", "21")
        assert code == 1
        assert "cannot write output" in err

    def test_output_onto_a_directory_removes_its_temp_file(self, capsys, tmp_path):
        # the temp file is written, then cannot replace a directory
        target = tmp_path / "out"
        target.mkdir()
        code, out, err = run_cli(capsys, "single", "--output", str(target),
                                 "--theta-points", "21")
        assert (code, out) == (1, "")
        assert "cannot write output" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("close_raises", [False, True], ids=["close-ok", "close-raises"])
    def test_closed_pipe_exits_1_silently(self, capsys, monkeypatch, close_raises):
        # a reader that stopped early (e.g. head) is not an error to report;
        # closing the stdout flushes its buffer, which can raise again
        class ClosedPipe:
            closed = False

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def close(self):
                self.closed = True
                if close_raises:
                    raise BrokenPipeError(32, "Broken pipe")

        pipe = ClosedPipe()
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(["single", "--theta-points", "21"]) == 1
        assert pipe.closed
        assert capsys.readouterr().err == ""


class TestConfigErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("single", "--theta-points", "1"),
            ("single", "--theta-min", "0.2", "--theta-max", "0.1"),
            ("single", "--wavelength-nm", "-5"),
            ("single", "--diameter-um", "0"),
            ("single", "--mass-ev", "-1"),
            ("two-beam", "--alpha", "-0.1"),
            ("scan", "--phi-points", "1"),
            ("zeros", "--n", "0"),
            ("compare", "--radius-scale", "0"),
            ("single", "--theta-max", "inf"),
            ("single", "--theta-min", "nan"),
            ("single", "--theta-min=-1e308", "--theta-max", "1e308"),
            ("scan", "--phi-max", "inf"),
            ("compare", "--theta-min=-inf"),
            ("single", "--spin", "flip"),
            ("two-beam", "--spin", "flip"),
            # found inside the library: too few dark points, an infinite momentum,
            # and dsigma_dtheta_two_beam's checks of alpha and phi
            ("zeros", "--wavelength-nm", "1e5"),
            ("zeros", "--wavelength-nm", "1e-300"),
            ("scan", "--alpha", "nan"),
            ("two-beam", "--phi", "inf"),
            # pc or mc^2 above 1e150 eV would overflow the spinor elements
            ("single", "--mode", "full", "--mass-ev", "1e200"),
            ("single", "--mode", "full", "--wavelength-nm", "1e-200"),
            # pR = 0.53: (0, pi/2) holds no first dark point for compare to report
            ("compare", "--wavelength-nm", "1e5"),
            # an intersection angle above pi; near 1e17 it would flatten the pattern
            ("two-beam", "--alpha", "4"),
            ("scan", "--alpha", "1e17"),
            # a 1-ulp window passes the CLI's own grid checks; its 3 points are not
            # strictly increasing, which only sample_pattern's validate_grid finds
            ("single", "--theta-min", "0.1", "--theta-max", "0.10000000000000002",
             "--theta-points", "3"),
            # scan takes the pattern commands' flags, and their flip rule with them
            ("scan", "--spin", "flip"),
        ],
    )
    def test_semantic_errors_exit_2(self, capsys, argv):
        # the suite turns RuntimeWarning into an error, so a non-finite grid
        # edge must be rejected before np.linspace multiplies by it
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "configuration error" in err

    @pytest.mark.parametrize("command", ["single", "two-beam", "scan", "compare", "zeros"])
    @pytest.mark.parametrize("wavelength_nm, diameter_um", [("1e-5", "1e300"), ("633", "1e-320")],
                             ids=["pR-inf", "pR-zero"])
    def test_bad_p_radius_names_both_flags(self, capsys, command, wavelength_nm, diameter_um):
        # each flag is finite and positive; only their product leaves (0, inf)
        code, out, err = run_cli(capsys, command, "--wavelength-nm", wavelength_nm,
                                 "--diameter-um", diameter_um)
        assert code == 2
        assert out == ""
        assert "--wavelength-nm" in err and "--diameter-um" in err

    @pytest.mark.parametrize("command", ["single", "two-beam", "scan", "compare", "zeros"])
    @pytest.mark.parametrize("wavelength_nm", ["1e-300", "1e-320"], ids=["overflow", "underflow"])
    def test_overflowing_momentum_names_the_wavelength(self, capsys, command, wavelength_nm):
        # 2 pi / wavelength overflows; at 1e-320 nm the wavelength in m is 0 first
        code, out, err = run_cli(capsys, command, "--wavelength-nm", wavelength_nm)
        assert code == 2
        assert out == ""
        assert f"--wavelength-nm {float(wavelength_nm)} is too small" in err

    @pytest.mark.parametrize(
        "argv, values",
        [
            (("single", "--theta-points", "3000000000"), "3,000,000,000"),
            (("two-beam", "--theta-points", str(_MAX_GRID_VALUES + 1)), "10,000,001"),
            (("compare", "--theta-points", str(_MAX_GRID_VALUES + 1)), "10,000,001"),
            (("scan", "--phi-points", "4000", "--theta-points", "4000"), "16,000,000"),
            (("scan", "--phi-points", str(_MAX_GRID_VALUES + 1)), "20,010,002,001"),
        ],
    )
    def test_oversized_grid_exits_2_before_allocating(self, capsys, monkeypatch, argv, values):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linspace reached for an oversized grid")

        monkeypatch.setattr(np, "linspace", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"the grid has {values} values" in err
        assert "cap of 10,000,000" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("single", "--theta-points", str(_MAX_GRID_VALUES)),
            ("scan", "--phi-points", "1000", "--theta-points", "10000"),
        ],
    )
    def test_grid_at_the_cap_is_accepted(self, capsys, monkeypatch, argv):
        class Reached(BaseException):  # main turns an Exception into exit 1
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(np, "linspace", reached)
        with pytest.raises(Reached):
            main(list(argv))

    @pytest.mark.parametrize("argv", [("single", "--mass-ev", "1e200"),
                                      ("zeros", "--wavelength-nm", "1e-200")])
    def test_extreme_beam_outside_full_mode_exits_0(self, capsys, argv):
        # only the spinor elements square pc and mc^2; other commands take any finite beam
        code, _, err = run_cli(capsys, *argv)
        assert code == 0
        assert "error" not in err

    def test_internal_fault_exits_1(self, capsys, monkeypatch):
        # a NaN amplitude is the package's own fault, not the caller's input,
        # under every normalization and in every density command
        from wirediff import electron

        monkeypatch.setattr(electron, "disk_amplitude", lambda q_r: np.full(np.shape(q_r), np.nan))
        for argv in (*(("single", "--normalization", n) for n in ("raw", "peak-one", "unit-area")),
                     ("two-beam",), ("scan", "--phi-points", "3", "--theta-points", "5")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1
            assert out == ""
            assert "wirediff: internal error: ValueError: density must be finite" in err
            assert "configuration error" not in err

    @pytest.mark.parametrize("command", ["single", "two-beam", "scan"])
    def test_spin_choices_are_the_channels(self, command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        choices = {a.dest: a.choices for a in sub.choices[command]._actions}
        assert choices["spin"] == _CHANNELS == ("flip", "no-flip", "sum")
        assert choices["mode"] == _MODES
        assert choices["normalization"] == _NORMALIZATIONS

    @pytest.mark.parametrize("command", ["compare", "zeros"])
    def test_json_only_commands_take_no_format(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--format", "json"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["single", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("mode", ["lowe", "low_energy", "Low-Energy", " full"])
    def test_mode_has_one_spelling(self, capsys, mode):
        with pytest.raises(SystemExit) as exc:
            main(["single", "--mode", mode])
        assert exc.value.code == 2


class TestNegativeValues:
    # a negative value in exponent form is read as the option's value, the
    # same as its --flag=value spelling
    @pytest.mark.parametrize(
        "argv",
        [
            ("single", "--theta-min", "-1e-3", "--theta-max", "2e-3"),
            ("two-beam", "--theta-min", "-.5E-1", "--theta-max", "5e-2", "--phi", "-1.5e0"),
            ("scan", "--phi-min", "-1e-310", "--phi-max", "5e-324", "--phi-points", "3",
             "--theta-points", "7"),
        ],
    )
    def test_same_bytes_as_equals_form(self, capsys, argv):
        joined = []
        for arg in argv:
            if arg[0] == "-" and arg[1] != "-":
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        assert len(joined) < len(argv)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert (code, out) == run_cli(capsys, *joined)[:2]

    def test_overflowing_distance_reaches_the_finiteness_check(self, capsys):
        code, out, err = run_cli(capsys, "single", "--theta-min", "-1e308", "--theta-max", "1e308")
        assert code == 2
        assert out == ""
        assert "--theta-min, --theta-max and their distance must be finite" in err


class TestTwoBeamCommand:
    def test_csv_default_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "two-beam", "--theta-points", "101")
        assert code == 0
        lines = out.split("\n")
        assert lines[1] == "theta_rad,density"
        config = json.loads(lines[0][len("# config: "):])
        assert config["alpha"] == 0.1
        assert config["phi"] == 0.0

    def test_destructive_center(self, capsys):
        code, out, _ = run_cli(
            capsys, "two-beam", "--phi", str(math.pi), "--theta-points", "3",
            "--theta-min", "-0.1", "--theta-max", "0.1",
        )
        rows = [line for line in out.split("\n")[2:] if line]
        center_density = float(rows[1].split(",")[1])
        assert center_density < 1e-20

    def test_full_mode_matches_low_energy_shape(self, capsys):
        _, out_low, _ = run_cli(capsys, "two-beam", "--theta-points", "51",
                                "--normalization", "peak-one")
        _, out_full, _ = run_cli(capsys, "two-beam", "--theta-points", "51",
                                 "--normalization", "peak-one", "--mode", "full")
        rows_low = [float(r.split(",")[1]) for r in out_low.split("\n")[2:] if r]
        rows_full = [float(r.split(",")[1]) for r in out_full.split("\n")[2:] if r]
        assert np.allclose(rows_low, rows_full, atol=1e-8)

    def test_deterministic(self, capsys):
        _, a, _ = run_cli(capsys, "two-beam", "--theta-points", "51")
        _, b, _ = run_cli(capsys, "two-beam", "--theta-points", "51")
        assert a == b


class TestScanCommand:
    def test_schema_and_scan_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--alpha", "0.1", "--phi-points", "9",
            "--theta-points", "41", "--theta-min", "-0.1", "--theta-max", "0.1",
        )
        assert code == 0
        lines = out.split("\n")
        assert lines[1] == "phi_rad,theta_rad,density"
        rows = [line.split(",") for line in lines[2:] if line]
        assert len(rows) == 9 * 41
        # phi = pi row (index 4 of 9 on [0, 2pi]) vanishes at theta = 0
        pi_rows = [r for r in rows if float(r[0]) == pytest.approx(math.pi, rel=1e-12)]
        center = [r for r in pi_rows if abs(float(r[1])) < 1e-12]
        assert len(center) == 1
        assert float(center[0][2]) < 1e-20

    def test_deterministic(self, capsys):
        argv = ("scan", "--phi-points", "5", "--theta-points", "11")
        _, a, _ = run_cli(capsys, *argv)
        _, b, _ = run_cli(capsys, *argv)
        assert a == b

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--phi-points", "3",
                               "--theta-points", "5", "--format", "json")
        doc = json.loads(out)
        assert len(doc["data"]["phi_rad"]) == 3
        assert len(doc["data"]["density"]) == 3
        assert len(doc["data"]["density"][0]) == 5

    # every (mode, spin) pair the package computes, under each normalization
    @pytest.mark.parametrize("normalization", ["raw", "peak-one", "unit-area"])
    @pytest.mark.parametrize("mode, spin", [
        ("low-energy", "no-flip"), ("low-energy", "sum"),
        ("full", "no-flip"), ("full", "flip"), ("full", "sum"),
    ])
    def test_rows_are_two_beam_patterns(self, capsys, mode, spin, normalization):
        # row k of a scan is the two-beam output at phi_k with the same flags, byte for
        # byte; each value prints as .17g, so its bits are equal too
        rng = np.random.default_rng([20261020, len(mode), len(spin), len(normalization)])
        for mass_ev in ("0.3", "1", "510998.95"):
            phi_min, phi_points = rng.uniform(-10.0, 10.0), int(rng.integers(2, 6))
            flags = ["--mode", mode, "--spin", spin, "--normalization", normalization,
                     "--mass-ev", mass_ev, f"--alpha={rng.uniform(0.0, math.pi)!r}",
                     f"--theta-min={-rng.uniform(0.05, 0.5)!r}",
                     f"--theta-max={rng.uniform(0.05, 0.5)!r}",
                     "--theta-points", str(rng.integers(2, 120)),
                     f"--wavelength-nm={rng.uniform(100.0, 2000.0)!r}"]
            code, out, _ = run_cli(capsys, "scan", *flags, f"--phi-min={phi_min!r}",
                                   f"--phi-max={phi_min + rng.uniform(0.1, 15.0)!r}",
                                   "--phi-points", str(phi_points))
            assert code == 0
            blocks = {}  # phi as printed -> its rows, without the phi lead
            for line in out.split("\n")[2:-1]:
                phi, row = line.split(",", 1)
                blocks.setdefault(phi, []).append(row + "\n")
            assert len(blocks) == phi_points
            for phi, rows in blocks.items():
                code, two_beam, _ = run_cli(capsys, "two-beam", *flags, f"--phi={phi}")
                assert code == 0
                assert two_beam.split("\n", 2)[2] == "".join(rows)

    def test_data_bytes_are_unchanged_by_the_shared_pattern_path(self, capsys):
        # sha256 of the bytes after the config line (CSV) and before the
        # metadata (JSON) of the three pinned scans, with the default --mode,
        # --spin and --normalization, which their config records
        pins = [
            (("scan",), "b26e1a8809ee3b7013c9fdcf3232d1a46568a9bf76f7fb367cdddc914e7b0d85"),
            (("scan", "--wavelength-nm", "100", "--theta-points", "3001", "--phi-points", "11"),
             "90721f8237660eaf6bd8f437884cf71346507a43a0e9fce6d57c21c9bc9cac1c"),
            (("scan", "--format", "json", "--phi-points", "3", "--theta-points", "101"),
             "1c12c737a52f6a2c2b02cc8f6a76b794e8f682d605e276605363f2d066fa119f"),
        ]
        for argv, digest in pins:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            if "json" in argv:
                data = out[:out.index('  "metadata"')]
                config = json.loads(out)["metadata"]
            else:
                config_line, data = out.split("\n", 1)
                config = json.loads(config_line[len("# config: "):])
            assert hashlib.sha256(data.encode("utf-8")).hexdigest() == digest
            assert {key: config[key] for key in ("mode", "normalization", "spin")} == {
                "mode": "low-energy", "normalization": "raw", "spin": "no-flip"}


class TestZerosCommand:
    def test_golden_values(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--wavelength-nm", "633",
                               "--diameter-um", "17", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        data = doc["data"]
        assert data["quantum_zeros_rad"][0] == pytest.approx(0.045420, abs=1e-5)
        assert data["classical_zeros_rad"][0] == pytest.approx(0.037247, abs=1e-5)
        assert data["overestimation_factor"] == pytest.approx(1.219, abs=2e-3)

    def test_multiple_zeros_increasing(self, capsys):
        _, out, _ = run_cli(capsys, "zeros", "--n", "3")
        data = json.loads(out)["data"]
        assert len(data["quantum_zeros_rad"]) == 3
        assert data["quantum_zeros_rad"] == sorted(data["quantum_zeros_rad"])

    def test_deterministic(self, capsys):
        _, a, _ = run_cli(capsys, "zeros")
        _, b, _ = run_cli(capsys, "zeros")
        assert a == b

    @pytest.mark.parametrize("n", [_MAX_ZEROS + 1, 100_000_000])
    def test_too_many_zeros_exit_2_before_any_dark_point(self, capsys, monkeypatch, n):
        from wirediff import cli

        def refuse(*args, **kwargs):
            raise AssertionError("first_dark_points reached for an oversized --n")

        monkeypatch.setattr(cli, "first_dark_points", refuse)
        code, out, err = run_cli(capsys, "zeros", "--wavelength-nm", "1e-6", "--n", str(n))
        assert code == 2
        assert out == ""
        assert f"--n must be in [1, 10,000], got {n}" in err

    def test_zeros_at_the_cap_are_computed(self, capsys, monkeypatch):
        from wirediff import cli

        asked = []

        def record(p_radius, model, n):
            asked.append(n)
            raise ArithmeticError("stop after recording n")

        monkeypatch.setattr(cli, "first_dark_points", record)
        code, _, _ = run_cli(capsys, "zeros", "--n", str(_MAX_ZEROS))
        assert code == 1
        assert asked == [_MAX_ZEROS]

    def test_zeros_evaluates_no_amplitude(self, capsys, monkeypatch):
        # dark points are closed form and the factor reuses them: count every
        # amplitude kernel call, wherever the package binds the kernel
        import importlib
        import pkgutil

        import wirediff
        from wirediff import numerics

        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        kernels = {name: getattr(numerics, name) for name in ("disk_amplitude", "sinc")}
        for info in pkgutil.iter_modules(wirediff.__path__):
            module = importlib.import_module(f"wirediff.{info.name}")
            for name, kernel in kernels.items():
                if getattr(module, name, None) is kernel:
                    monkeypatch.setattr(module, name, counted(kernel))
        code, _, _ = run_cli(capsys, "zeros")
        assert code == 0
        assert calls == []
        # the counters are live: a pattern command goes through them
        assert run_cli(capsys, "single")[0] == 0
        assert calls


class TestCompareCommand:
    def test_default_comparison_metrics(self, capsys):
        code, out, _ = run_cli(capsys, "compare")
        assert code == 0
        data = json.loads(out)["data"]
        assert data["first_zero_offset_rad"] == pytest.approx(0.008173, abs=1e-4)
        assert data["max_abs_diff"] > 0.0
        assert data["l2_diff"] > 0.0

    def test_aligning_radius_scale_shrinks_offset(self, capsys):
        factor = 1.219492757309122
        _, out, _ = run_cli(capsys, "compare", "--radius-scale",
                            repr(1.0 / factor))
        data = json.loads(out)["data"]
        assert abs(data["first_zero_offset_rad"]) < 1e-4

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_bad_radius_scale_names_the_flag(self, capsys, scale):
        code, out, err = run_cli(capsys, "compare", "--radius-scale", scale)
        assert code == 2
        assert out == ""
        assert "--radius-scale must be positive" in err

    @pytest.mark.parametrize("argv, message", [
        (("--radius-scale", "1e-320"),
         "--radius-scale 1e-320 makes the classical pR 8.43706e-319, with no dark point"),
        # the quantum curve is checked first, and the flag is not to blame
        (("--wavelength-nm", "1e5"), "for p_radius=0.5340707511102648 (quantum)"),
    ], ids=["classical", "quantum"])
    def test_missing_dark_point_names_its_cause(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "compare", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("wavelength_nm, per_fringe", [("20", "7.84"), ("0.00536", "0.0021")])
    def test_undersampled_grid_exits_2(self, capsys, wavelength_nm, per_fringe):
        # the default grid resolves the 633 nm fringes only; at 20 nm the
        # first dark points fall between samples and would be misreported
        code, out, err = run_cli(capsys, "compare", "--wavelength-nm", wavelength_nm)
        assert code == 2
        assert out == ""
        assert f"{per_fringe} samples per fringe" in err

    @pytest.mark.parametrize("argv", [(), ("--theta-points", "501"), ("--radius-scale", "0.82")],
                             ids=["default", "501-points", "scale-0.82"])
    def test_dark_points_are_exact(self, capsys, argv):
        # the exact dark points, whatever the grid
        code, out, _ = run_cli(capsys, "compare", *argv)
        assert code == 0
        doc = json.loads(out)
        data = doc["data"]
        p_radius = BeamParams.from_wavelength_nm(633.0).momentum * 8.5e-6
        quantum = first_dark_points(p_radius, "quantum")[0]
        classical = first_dark_points(doc["metadata"]["radius_scale"] * p_radius,
                                      "classical")[0]
        assert data["first_zero_quantum_rad"] == quantum
        assert data["first_zero_classical_rad"] == classical
        assert data["first_zero_offset_rad"] == quantum - classical

    @pytest.mark.parametrize("theta_max, classical_zero", [("0.03", False), ("0.04", True)])
    def test_dark_points_do_not_depend_on_theta_window(self, capsys, theta_max, classical_zero):
        # +-0.03 rad holds neither first dark point, +-0.04 only the classical
        # one; each window gives the exact dark points of the default window,
        # which holds both
        code, out, _ = run_cli(capsys, "compare", f"--theta-min=-{theta_max}",
                               "--theta-max", theta_max)
        assert code == 0
        data = json.loads(out)["data"]
        _, default_out, _ = run_cli(capsys, "compare")
        default = json.loads(default_out)["data"]
        for key in ("first_zero_quantum_rad", "first_zero_classical_rad", "first_zero_offset_rad"):
            assert data[key] == default[key]
        assert data["first_zero_quantum_rad"] > float(theta_max)
        assert (data["first_zero_classical_rad"] < float(theta_max)) == classical_zero

    def test_metadata_echoes_config(self, capsys):
        _, out, _ = run_cli(capsys, "compare", "--theta-points", "501")
        meta = json.loads(out)["metadata"]
        assert meta["theta_points"] == 501
        assert meta["command"] == "compare"
        assert "version" in meta


_CSV_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.5e-310, 1e308, -1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53,
                     1e16, 0.1, 1.0 / 3.0]),
    st.floats(),
)

_JSON_ARRAYS = st.one_of(
    st.lists(_CSV_VALUES, max_size=4).map(np.array),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda shape: st.lists(_CSV_VALUES, min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]).map(
            lambda values: np.array(values, dtype=float).reshape(shape))),
    st.lists(_CSV_VALUES, max_size=4).map(tuple),
)

_JSON_SCALARS = st.one_of(
    _CSV_VALUES, st.integers(-2**63, 2**63), st.booleans(), st.none(),
    st.sampled_from(["", "a, b", 'say "hi"', "back\\slash", "x: y", "\u00e9\u2202\U0001f600",
                     "[1, 2]", "{}"]),
    st.text(max_size=6),
)


@st.composite
def _repeating_scans(draw):
    # (phis, thetas, density) whose density rows come from a pool of 1 to 3
    # rows, so repeats are the norm: with both signed zeros among the cells,
    # two rows may differ by a signed zero alone, and the phis repeat values
    # and have texts that are prefixes of each other ("1", "10", "100")
    columns = draw(st.integers(1, 4))
    cells = st.lists(st.sampled_from([0.0, -0.0, 1.0, 10.0, 1.0 / 3.0]),
                     min_size=columns, max_size=columns)
    pool = draw(st.lists(cells, min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    phis = draw(st.lists(st.sampled_from([1.0, 10.0, 100.0, 0.0, -0.0, 1.5]),
                         min_size=len(picks), max_size=len(picks)))
    thetas = draw(st.lists(_CSV_VALUES, min_size=columns, max_size=columns))
    return np.array(phis), np.array(thetas), np.array(picks)


# rows equal but for a signed zero, one row repeated under phis "1" and "10"
# and under the same phi twice
_SIGNED_ZERO_SCAN = (np.array([1.0, 10.0, 1.0, 1.0, 0.0]), np.array([0.0, 0.1]),
                     np.array([[0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]]))


class TestEmitters:
    # the data of every command: arrays (1-D, 2-D as scan's density, tuples
    # as zeros') beside scalars, or scalars alone as compare's
    @given(config=st.dictionaries(st.text(max_size=6), _JSON_SCALARS, max_size=6),
           data=st.one_of(st.dictionaries(st.text(max_size=6), _JSON_ARRAYS | _CSV_VALUES,
                                          max_size=4),
                          st.dictionaries(st.text(max_size=6), _CSV_VALUES, max_size=4)))
    def test_json_doc_matches_json_dumps(self, config, data):
        plain = {key: value.tolist() if isinstance(value, np.ndarray) else value
                 for key, value in data.items()}
        expected = json.dumps({"metadata": config, "data": plain}, sort_keys=True, indent=2)
        assert _json_doc(config, data) == expected + "\n"

    @given(rows=st.integers(1, 4), columns=st.integers(2, 12), scan=st.booleans(),
           config=st.sampled_from([{}, {"command": "scan", "phi_points": 3, "version": "0.1.0"}]),
           data=st.data())
    def test_csv_matches_per_cell_writer(self, rows, columns, scan, config, data):
        def floats(n):
            return np.array(data.draw(st.lists(_CSV_VALUES, min_size=n, max_size=n)))

        thetas = floats(columns)
        if scan:
            phis, density = floats(rows), floats(rows * columns).reshape(rows, columns)
            header = "phi_rad,theta_rad,density"
            expected = reference_csv(config, header, np.repeat(phis, columns),
                                     np.tile(thetas, rows), density.ravel())
            assert _csv(config, {"phi_rad": phis, "theta_rad": thetas,
                                 "density": density}) == expected
        else:
            density = floats(columns)
            expected = reference_csv(config, "theta_rad,density", thetas, density)
            assert _csv(config, {"theta_rad": thetas, "density": density}) == expected

    @given(scan=_repeating_scans())
    @example(scan=_SIGNED_ZERO_SCAN)
    def test_csv_of_repeated_scan_rows_matches_per_cell_writer(self, scan):
        # a repeated row reuses the first one's text under its own phi
        phis, thetas, density = scan
        expected = reference_csv({}, "phi_rad,theta_rad,density", np.repeat(phis, thetas.size),
                                 np.tile(thetas, phis.size), density.ravel())
        assert _csv({}, {"phi_rad": phis, "theta_rad": thetas, "density": density}) == expected

    @given(scan=_repeating_scans())
    @example(scan=_SIGNED_ZERO_SCAN)
    def test_json_of_repeated_scan_rows_matches_json_dumps(self, scan):
        data = dict(zip(("phi_rad", "theta_rad", "density"), scan))
        plain = {key: value.tolist() for key, value in data.items()}
        expected = json.dumps({"metadata": {}, "data": plain}, sort_keys=True, indent=2)
        assert _json_doc({}, data) == expected + "\n"

    def test_default_scan_repeats_rows(self):
        # the writers' reuse runs on real data: phi = 2 pi reduces to exactly
        # 0, and mirrored reduced phases share the half-angle weights cos^2
        # and sin^2; so do rows each normalized as their own pattern
        for argv in (["scan"], ["scan", "--normalization", "peak-one"]):
            args = build_parser().parse_args(argv)
            data = cli._cmd_scan(args, *cli._resolve_physics(args))
            rows = [row.tobytes() for row in data["density"]]
            assert rows[-1] == rows[0]
            assert len(set(rows)) < len(rows) == data["phi_rad"].size

    def test_empty_metadata_csv_still_valid(self):
        from wirediff.patterns import Pattern

        pattern = Pattern(np.array([0.0, 0.1]), np.array([1.0, 0.5]))
        text = _csv({}, {"theta_rad": pattern.thetas, "density": pattern.density})
        lines = text.split("\n")
        assert lines[0] == "theta_rad,density"
        assert lines[1] == "0,1"

    @pytest.mark.parametrize("argv", [
        ("single",), ("single", "--format", "json"), ("two-beam",),
        ("two-beam", "--format", "json"), ("scan", "--phi-points", "5", "--theta-points", "41"),
        ("compare",), ("zeros",),
    ], ids=["single", "single-json", "two-beam", "two-beam-json", "scan", "compare", "zeros"])
    def test_file_output_equals_stdout(self, capsys, tmp_path, argv):
        _, stdout_text, _ = run_cli(capsys, *argv)
        target = tmp_path / f"{argv[0]}.out"
        code, out, _ = run_cli(capsys, *argv, "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_bytes() == stdout_text.encode("utf-8")


class TestAliasingWarning:
    # pR ~ 1e7 at 0.00536 nm: the default grid has 0.0021 samples per fringe
    @pytest.mark.parametrize("command", ["single", "two-beam", "scan"])
    def test_undersampled_grid_warns_without_touching_stdout(self, capsys, caplog, command):
        argv = (command, "--wavelength-nm", "0.00536", "--theta-points", "101")
        if command == "scan":
            argv += ("--phi-points", "3")
        with caplog.at_level(logging.CRITICAL, logger="wirediff"):
            code, quiet, _ = run_cli(capsys, *argv)
        assert code == 0
        assert caplog.records == []
        with caplog.at_level(logging.WARNING, logger="wirediff"):
            code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == quiet
        [record] = caplog.records
        assert record.name == "wirediff"
        assert record.levelno == logging.WARNING
        assert "samples per fringe" in record.getMessage()

    @pytest.mark.parametrize("argv, warns", [
        (("single",), False),
        (("single", "--wavelength-nm", "0.00536"), True),
        (("two-beam", "--wavelength-nm", "20", "--theta-points", "201"), True),
        (("two-beam", "--wavelength-nm", "20", "--theta-points", "1001"), False),
    ])
    def test_warns_below_two_samples_per_fringe(self, capsys, caplog, argv, warns):
        with caplog.at_level(logging.WARNING, logger="wirediff"):
            code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert bool(caplog.records) == warns

    def test_warning_reaches_stderr_of_the_process(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-m", "wirediff.cli", "single", "--wavelength-nm", "0.00536",
             "--theta-points", "11"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False)
        assert result.returncode == 0
        assert "1.05e-05 samples per fringe" in result.stderr
        assert "theta_rad,density" in result.stdout


class TestTimestampFlag:
    def test_off_by_default(self, capsys):
        _, out, _ = run_cli(capsys, "zeros")
        assert "timestamp" not in json.loads(out)["metadata"]

    def test_opt_in(self, capsys):
        _, out, _ = run_cli(capsys, "zeros", "--timestamp")
        assert "timestamp" in json.loads(out)["metadata"]


class TestParserReuse:
    # main parses every argv with the one parser build_parser builds on its
    # first call; no call may leave state in it that changes a later call

    @staticmethod
    def run(capsys, *argv):
        # run_cli for argvs that argparse ends with SystemExit (--help, usage errors)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def run_fresh(self, capsys, monkeypatch, *argv):
        # the same argv parsed by a parser built for this call alone
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", build_parser.__wrapped__)
            return self.run(capsys, *argv)

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()
        assert build_parser.__wrapped__() is not build_parser()

    @pytest.mark.parametrize("first, second", [
        (("zeros", "--timestamp"), ("zeros",)),
        (("zeros", "--output", "{path}"), ("zeros",)),
        (("single", "--format", "json"), ("single",)),
        (("single", "--mode", "full", "--spin", "sum"), ("single",)),
        (("single", "--frobnicate"), ("zeros",)),
    ], ids=["timestamp", "output", "format-json", "full-sum", "usage-error"])
    def test_second_call_prints_what_it_prints_alone(self, capsys, monkeypatch, tmp_path,
                                                     first, second):
        path = tmp_path / "first.out"
        code, _, _ = self.run(capsys, *(str(path) if a == "{path}" else a for a in first))
        assert code == (2 if "--frobnicate" in first else 0)
        assert path.exists() == ("{path}" in first)
        assert self.run(capsys, *second) == self.run_fresh(capsys, monkeypatch, *second)

    @pytest.mark.parametrize("command", ["", "single", "two-beam", "scan", "compare", "zeros"],
                             ids=lambda command: command or "top-level")
    def test_help_is_what_a_fresh_parser_prints(self, capsys, monkeypatch, command):
        # a call of every command, with non-default options, and a usage error
        for argv in (("single", "--format", "json"), ("two-beam", "--mode", "full"),
                     ("scan", "--phi-points", "3", "--theta-points", "101", "--timestamp"),
                     ("compare", "--radius-scale", "0.82"), ("zeros", "--n", "3"), ("bogus",)):
            self.run(capsys, *argv)
        argv = (command, "--help") if command else ("--help",)
        code, out, err = self.run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: wirediff")
        assert (code, out, err) == self.run_fresh(capsys, monkeypatch, *argv)


class TestSharedOptionHelp:
    # an option that several commands take is declared once, with one help string
    @staticmethod
    def help_entry(capsys, command, flag):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        lines = capsys.readouterr().out.split("\n")
        start = next(i for i, line in enumerate(lines) if line.startswith(f"  {flag} "))
        entry = [lines[start]]
        for line in lines[start + 1:]:
            if not line.startswith("   "):  # an entry's help wraps onto indented lines
                break
            entry.append(line)
        return "\n".join(entry)

    @pytest.mark.parametrize("flag, commands", [
        ("--mode", ("single", "two-beam", "scan")),
        ("--spin", ("single", "two-beam", "scan")),
        ("--normalization", ("single", "two-beam", "scan")),
        ("--format", ("single", "two-beam", "scan")),
        ("--alpha", ("two-beam", "scan")),
    ], ids=lambda value: value.lstrip("-") if isinstance(value, str) else "-".join(value))
    def test_same_help_line_in_every_command(self, capsys, monkeypatch, flag, commands):
        monkeypatch.setenv("COLUMNS", "80")
        entries = [self.help_entry(capsys, command, flag) for command in commands]
        assert "default" in entries[0]
        assert entries == entries[:1] * len(commands)


class TestPinnedDigests:
    # sha256 of the default stdout of each command, a multi-phase scan at
    # pR ~ 534, a 20,001-point Hankel-branch pattern, the full-mode spin
    # sum of both pattern commands (one spinor_elements call gives both
    # final spins), a compare whose classical radius is rescaled, and the
    # JSON arrays of both pattern commands and of a scan (density nested
    # per phi).
    # Refactors of the amplitude model or the writer must leave these bytes
    # unchanged.
    # ids name the argv, so a deliberate re-pin keeps every test id
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("single",),
             "9f3ab15f1a9f40928c8e47428772418c55763114a0e0df0863a9c595f27a3702"),
            (("two-beam",),
             "81bb4743a1ab7c426828f2d53b53c01ef6525bb896463cc27026c1fe9deae8be"),
            (("scan",),
             "b0fa9f88b3f23fbd10f575d32ade6f660a8a3200e5934feae366d29e4752e139"),
            (("compare",),
             "b9ae0b0f289fda1e94e3189b781f7302d1fa4c33c48f6ae883e5b507f3aa1aa5"),
            (("zeros",),
             "822db2213c37e1bc8506e9c59e7543f061bb1783739e8b751e3e1fac5567fa53"),
            (("zeros", "--n", "3"),
             "a71fb7f377f9fff2a582e8fafaf1969461b71fabb4d9936637e244cab2563b74"),
            (("scan", "--wavelength-nm", "100", "--theta-points", "3001", "--phi-points", "11"),
             "380db46177168058cbf5b935e29033c613f0b9e686f347c80f4303cef1441793"),
            (("single", "--wavelength-nm", "20", "--theta-points", "20001"),
             "4d411e96d3f1a047b90daa1a0140afa22c44e78fc5e7df95d75c4e8d591cbaea"),
            (("single", "--mode", "full", "--spin", "sum"),
             "bbbc66665e82a99263adc5fa96111973caff25c977b652bbe04eb964fc5b9a5e"),
            (("two-beam", "--mode", "full", "--spin", "sum"),
             "5dbbb30a4f7e22968a4c7929885788505e3f4998b052a9b13f795d7b05f01c89"),
            (("compare", "--radius-scale", "0.82"),
             "32a310567d0f8bef9adb4bf7ebc66aaab849794dc50311d72b33b5240a77b550"),
            (("single", "--format", "json"),
             "8b161d3fa49b7f7ffa635f8e824295de9dce2b1ca3ac1e8a753f70d69bb8afe3"),
            (("two-beam", "--mode", "full", "--spin", "sum", "--format", "json"),
             "20b87daed4227a0701d5498694fe2eac08668842b942d8fcbf4fa35eb6639341"),
            (("scan", "--format", "json", "--phi-points", "3", "--theta-points", "101"),
             "cd8865b279921876198edb2db9a0c73706b51d66d56e2be9a55a01aefe15ce24"),
        ],
        ids=["single", "two-beam", "scan", "compare", "zeros", "zeros-n3", "scan-100nm",
             "single-20nm", "single-full-sum", "two-beam-full-sum", "compare-scale-0.82",
             "single-json", "two-beam-full-sum-json", "scan-json"],
    )
    def test_default_output_digest(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Runs each argv of the JSON list in argv[2] through main() in one fresh
# interpreter, with numpy's import blocked when argv[1] is "block", and prints
# [exit code, stdout, stderr] per argv as JSON; "check" prints instead whether
# numpy is loaded after importing the CLI and after running the argvs.
_FRESH_MAIN = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from wirediff.cli import main
loaded = ["numpy" in sys.modules]
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
loaded.append("numpy" in sys.modules)
print(json.dumps(loaded if sys.argv[1] == "check" else results))
"""


def run_fresh(mode, *argvs):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _FRESH_MAIN, mode, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True, timeout=60)
    return json.loads(done.stdout)


class TestNumpyFreePaths:
    # zeros, the help and version texts and the errors found before any grid
    # is built run without numpy, byte for byte as with it
    HELP = [["--version"], ["--help"],
            *([command, "--help"] for command in ("single", "two-beam", "scan", "compare",
                                                  "zeros"))]
    ERRORS = [["zeros", "--n", "0"], ["single", "--wavelength-nm", "-1"]]

    def test_cli_import_and_zeros_load_no_numpy(self):
        assert run_fresh("check", ["zeros"]) == [False, False]

    def test_zeros_digests_without_numpy(self):
        # the two zeros pins of TestPinnedDigests
        pins = ["822db2213c37e1bc8506e9c59e7543f061bb1783739e8b751e3e1fac5567fa53",
                "a71fb7f377f9fff2a582e8fafaf1969461b71fabb4d9936637e244cab2563b74"]
        results = run_fresh("block", ["zeros"], ["zeros", "--n", "3"])
        assert [code for code, _, _ in results] == [0, 0]
        assert [hashlib.sha256(out.encode("utf-8")).hexdigest()
                for _, out, _ in results] == pins

    def test_help_version_and_errors_match_an_unblocked_run(self):
        blocked = run_fresh("block", *self.HELP, *self.ERRORS)
        assert blocked == run_fresh("free", *self.HELP, *self.ERRORS)
        assert [code for code, _, _ in blocked] == [0] * len(self.HELP) + [2, 2]
        for code, out, err in blocked[:len(self.HELP)]:
            assert out and err == ""
        for code, out, err in blocked[len(self.HELP):]:
            assert out == "" and err.startswith("wirediff: configuration error: ")
