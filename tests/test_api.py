import os
import subprocess
import sys
from pathlib import Path

import wirediff

# public names deleted in 0.2.0 and 0.3.0, each a second path to a quantity
# that keeps one, or a test oracle now in tests/oracles.py
REMOVED = ("superpose_amplitudes", "momentum_transfer_pair", "form_factor",
           "dsigma_dtheta_full_spin_summed", "hyp0f1_reg2", "hyp0f1_reg2_series",
           "bessel_j1", "disk_ft_oracle", "AccuracyError")


class TestPublicSurface:
    def test_every_entry_resolves(self):
        missing = [name for name in wirediff.__all__ if not hasattr(wirediff, name)]
        assert missing == []

    def test_no_duplicates(self):
        assert len(wirediff.__all__) == len(set(wirediff.__all__)) == 41

    def test_disk_amplitude_is_the_exported_amplitude(self):
        from wirediff import numerics

        assert "disk_amplitude" in wirediff.__all__
        assert wirediff.disk_amplitude is numerics.disk_amplitude

    def test_removed_names_are_gone(self):
        from wirediff import classical, electron, numerics, potential, twobeam

        for name in REMOVED:
            assert name not in wirediff.__all__
            for module in (wirediff, classical, electron, numerics, potential, twobeam):
                assert not hasattr(module, name), f"{module.__name__}.{name}"

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
