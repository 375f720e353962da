"""A run killed at a model call and then resumed ends with the stdout and
the output files of a run that was never killed."""

import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env, write_manifest_file
from kill_child import reply
from vtagent import cli
from vtagent.backends import FunctionBackend

CHILD = Path(__file__).with_name("kill_child.py")


def output_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("command", ["eval", "oracle", "curate-sft", "curate-rl"])
def test_resumed_run_matches_an_uninterrupted_one(command, parallelism, manifest_factory,
                                                  tmp_path, monkeypatch, capsys):
    manifest = write_manifest_file(manifest_factory(n_samples=4), tmp_path / "manifest.jsonl")

    def argv(out: Path) -> list[str]:
        return [command, "--manifest", str(manifest), "--backend", "scripted",
                "--parallelism", str(parallelism), "--out-dir", str(out)]

    backend = FunctionBackend(reply)
    monkeypatch.setattr(cli, "build_backend", lambda cfg: backend)
    assert cli.main(argv(tmp_path / "whole")) == 0
    stdout = capsys.readouterr().out
    # the first call, and one other drawn from the calls the run makes
    kill_points = (1, random.Random(f"{command} {parallelism}").randint(2, backend.calls))
    for kill_at in kill_points:
        out = tmp_path / f"killed-at-{kill_at}"
        child = subprocess.run([sys.executable, str(CHILD), str(kill_at), *argv(out)],
                               env=src_env(), capture_output=True, text=True, timeout=60)
        assert child.returncode == -signal.SIGKILL, child.stderr
        assert cli.main(argv(out) + ["--resume"]) == 0
        assert capsys.readouterr().out == stdout
        assert output_files(out) == output_files(tmp_path / "whole")
