"""The ``repro backends`` subcommand: availability report surface."""

import json

from repro.backends import JAX_AVAILABLE, available_backends
from repro.experiments.cli import build_parser, main


class TestParser:
    def test_backends_parses(self):
        args = build_parser().parse_args(["backends"])
        assert args.experiment == "backends"
        assert args.output is None

    def test_backends_output_flag(self):
        args = build_parser().parse_args(["backends", "--output", "b.json"])
        assert args.output == "b.json"


class TestMain:
    def test_lists_every_registered_backend(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in available_backends():
            assert name in out

    def test_marks_availability(self, capsys):
        main(["backends"])
        out = capsys.readouterr().out
        assert "available" in out
        line = next(ln for ln in out.splitlines() if ln.startswith("jax"))
        assert ("available" if JAX_AVAILABLE else "missing") in line

    def test_missing_backend_shows_install_hint(self, capsys):
        """Soft-dependency backends surface their hint inline (the whole
        point of the subcommand: no BackendError archaeology)."""
        main(["backends"])
        out = capsys.readouterr().out
        if not JAX_AVAILABLE:
            assert "pip install jax" in out

    def test_output_json_written(self, tmp_path, capsys):
        path = tmp_path / "backends.json"
        assert main(["backends", "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert sorted(payload) == available_backends()
        assert payload["loop"]["available"] is True
        assert payload["loop"]["hint"] is None
        assert payload["jax"]["available"] is JAX_AVAILABLE
