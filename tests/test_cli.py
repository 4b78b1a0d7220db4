import hashlib
import json
import math

import numpy as np
import pytest

from wirediff.cli import main


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
        from wirediff import BeamParams, WirePotential, pattern_single

        pattern = pattern_single(
            BeamParams.from_wavelength_nm(633.0),
            WirePotential.from_diameter_um(17.0),
            np.linspace(-0.15, 0.15, 101),
        )
        assert doc["data"]["density"] == [float(d) for d in pattern.density]

    def test_full_mode_spin_channels(self, capsys):
        for spin in ("no-flip", "flip", "sum"):
            code, out, _ = run_cli(capsys, "single", "--mode", "full",
                                   "--spin", spin, "--theta-points", "21")
            assert code == 0

    def test_mode_alias_lowe(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "single", "--mode", "lowE",
                                   "--theta-points", "21")
        code_b, out_b, _ = run_cli(capsys, "single", "--mode", "low-energy",
                                   "--theta-points", "21")
        assert code_a == code_b == 0
        assert out_a == out_b

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

    def test_unwritable_output_is_runtime_error(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "single.csv"
        code, _, err = run_cli(capsys, "single", "--output", str(target),
                               "--theta-points", "21")
        assert code == 1
        assert "cannot write output" in err


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
        ],
    )
    def test_semantic_errors_exit_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "configuration error" in err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["single", "--frobnicate"])
        assert exc.value.code == 2


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

    def test_dark_point_search_runs_once(self, capsys, monkeypatch):
        # the factor comes from the zeros already found, not from a second
        # search: count every numerics kernel call made by analysis
        import types

        from wirediff import analysis, numerics

        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name, obj in list(vars(analysis).items()):
            if (isinstance(obj, types.FunctionType) and obj.__module__ == numerics.__name__
                    and name != "find_zero"):
                monkeypatch.setattr(analysis, name, counted(obj))
        code, _, _ = run_cli(capsys, "zeros")
        assert code == 0
        assert len(calls) == 43


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

    @pytest.mark.parametrize("wavelength_nm, per_fringe", [("20", "7.84"), ("0.00536", "0.0021")])
    def test_undersampled_grid_exits_2(self, capsys, wavelength_nm, per_fringe):
        # the default grid resolves the 633 nm fringes only; at 20 nm the
        # first dark points fall between samples and would be misreported
        code, out, err = run_cli(capsys, "compare", "--wavelength-nm", wavelength_nm)
        assert code == 2
        assert out == ""
        assert f"{per_fringe} samples per fringe" in err

    def test_metadata_echoes_config(self, capsys):
        _, out, _ = run_cli(capsys, "compare", "--theta-points", "501")
        meta = json.loads(out)["metadata"]
        assert meta["theta_points"] == 501
        assert meta["command"] == "compare"
        assert "version" in meta


class TestEmitters:
    def test_empty_metadata_csv_still_valid(self):
        from wirediff.cli import _csv
        from wirediff.patterns import Pattern

        pattern = Pattern(np.array([0.0, 0.1]), np.array([1.0, 0.5]))
        text = _csv({}, "theta_rad,density", pattern.thetas, pattern.density)
        lines = text.split("\n")
        assert lines[0] == "theta_rad,density"
        assert lines[1] == "0,1"

    def test_file_output_equals_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run_cli(capsys, "zeros")
        target = tmp_path / "zeros.json"
        code, out, _ = run_cli(capsys, "zeros", "--output", str(target))
        assert code == 0
        assert target.read_text(encoding="utf-8") == stdout_text


class TestTimestampFlag:
    def test_off_by_default(self, capsys):
        _, out, _ = run_cli(capsys, "zeros")
        assert "timestamp" not in json.loads(out)["metadata"]

    def test_opt_in(self, capsys):
        _, out, _ = run_cli(capsys, "zeros", "--timestamp")
        assert "timestamp" in json.loads(out)["metadata"]


class TestPinnedDigests:
    # sha256 of the default stdout of each command.  Refactors of the
    # amplitude model must leave these bytes unchanged; full-mode outputs are
    # deliberately not pinned, their last digits may move.
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("single",),
             "0479fc3c01372baf717a81cf79aa1bcd0610c76f8bcafa86bb2609c04acb2fb5"),
            (("two-beam",),
             "4798bddb7ec503e46cadc0aabaa4a5cf8fbccd27a5df0eb457a10905d192907f"),
            (("scan",),
             "b0d2807b2bf48befd105aa30596cd17e334c90fd91da89dd6b5bef7d787bf917"),
            (("compare",),
             "3f9321b2136d1ecbb79a607b2296bc20c0d8bb5a697c8209bd6114941067a5ad"),
            (("zeros",),
             "3765631e5caba2abb18af3b0b7ce401742d4bc082b1af357ffd3f7c5aa0a0483"),
            (("zeros", "--n", "3"),
             "209e976ee8dfa1f0b8cf98f7d9e5e262dc0b4d6bc7d7fd363318912c89cacd98"),
        ],
    )
    def test_default_output_digest(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
