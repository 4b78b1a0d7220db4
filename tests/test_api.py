import wirediff

# public names deleted in 0.2.0, each a second path to a quantity that keeps one
REMOVED = ("superpose_amplitudes", "momentum_transfer_pair", "form_factor",
           "dsigma_dtheta_full_spin_summed")


class TestPublicSurface:
    def test_every_entry_resolves(self):
        missing = [name for name in wirediff.__all__ if not hasattr(wirediff, name)]
        assert missing == []

    def test_no_duplicates(self):
        assert len(wirediff.__all__) == len(set(wirediff.__all__)) == 45

    def test_removed_names_are_gone(self):
        from wirediff import classical, electron, potential, twobeam

        for name in REMOVED:
            assert name not in wirediff.__all__
            for module in (wirediff, classical, electron, potential, twobeam):
                assert not hasattr(module, name), f"{module.__name__}.{name}"

    def test_version_matches_pyproject(self):
        import re
        from pathlib import Path

        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) \
            == wirediff.__version__
