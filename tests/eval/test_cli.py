"""CLI experiment runner."""

import pytest

from repro.eval.cli import REGISTRY, main


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    """Shrink datasets so CLI smoke runs stay fast."""
    import repro.eval.config as config
    from repro.eval.datasets import load_dataset

    original = config.MINI_PROFILES
    config.MINI_PROFILES = {
        name: config.NetworkProfile(
            p.name, 250, p.edge_ratio, 0, p.seed, 2, (1, 2), 6
        )
        for name, p in original.items()
    }
    load_dataset.cache_clear()
    monkeypatch.setenv("REPRO_QUERIES", "2")
    yield
    config.MINI_PROFILES = original
    load_dataset.cache_clear()


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig17a" in out and "table1" in out
        assert len(out.splitlines()) == len(REGISTRY)

    def test_single_experiment(self, capsys):
        assert main(["table1"]) == 0
        assert "Evaluation parameters" in capsys.readouterr().out

    def test_experiment_with_output_dir(self, tmp_path, capsys):
        assert main(["fig11", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig11.txt").exists()

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_numpy_backend_flag_rejected(self, capsys):
        """The CLI has no array-backend flag at all."""
        with pytest.raises(SystemExit) as exit_info:
            main(["table1", "--backend", "numpy"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --backend numpy" in err

    def test_queries_flag(self, monkeypatch, capsys):
        import os

        assert main(["table1", "--queries", "3"]) == 0
        assert os.environ["REPRO_QUERIES"] == "3"

    def test_registry_covers_every_figure(self):
        for fig in ("fig11", "fig13", "fig14", "fig15", "fig16",
                    "fig17a", "fig17b", "fig17c",
                    "fig18a", "fig18b", "fig18c", "fig19"):
            assert fig in REGISTRY
