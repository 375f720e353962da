import json
from pathlib import Path

import pytest

from conftest import write_manifest_file
from vtagent import cli
from vtagent.backends import RecordingBackend, TranscriptStore
from vtagent.engine import EngineConfig, run_batch


def select_then_answer(gold):
    return [
        "<reasoning>pick</reasoning>\n<action>select key frame: [0, 1]</action>",
        f"<reasoning>read</reasoning>\n<action>answer: {gold}</action>",
    ]


@pytest.fixture
def manifest_path(manifest_factory, tmp_path):
    manifest = manifest_factory(n_samples=4)
    return write_manifest_file(manifest, tmp_path / "manifest.jsonl"), manifest


def write_script(path: Path, manifest, oracle=True):
    lines = []
    for sample in manifest.samples:
        gold = sample.gold_answers[0] if oracle else "wrong"
        lines.extend(select_then_answer(gold))
    path.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
    return path


class TestEval:
    def test_scripted_eval_summary(self, manifest_path, tmp_path, capsys):
        path, manifest = manifest_path
        script = write_script(tmp_path / "script.jsonl", manifest)
        code = cli.main(["eval", "--manifest", str(path), "--backend", "scripted",
                         "--script", str(script), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "100.00" in out
        assert (tmp_path / "out" / "trajectories.jsonl").exists()
        assert (tmp_path / "out" / "scores.jsonl").exists()

    def test_missing_manifest_exit_2(self, tmp_path, capsys):
        code = cli.main(["eval", "--manifest", str(tmp_path / "none.jsonl"),
                         "--backend", "scripted", "--script", "x"])
        assert code == 2

    def test_http_unreachable_exit_3(self, manifest_path):
        path, _ = manifest_path
        code = cli.main(["eval", "--manifest", str(path), "--backend", "http",
                         "--api-base", "http://127.0.0.1:1"])
        assert code == 3

    def test_replay_determinism_across_parallelism(self, manifest_path, tmp_path,
                                                   oracle_backend_factory):
        path, manifest = manifest_path
        store_path = tmp_path / "store.jsonl"
        store = TranscriptStore(store_path)
        recording = RecordingBackend(oracle_backend_factory(manifest), store)
        # seed the replay store with a real run at the CLI's engine settings
        from vtagent.cli import engine_config, resolve_config
        args = cli.build_parser().parse_args(
            ["eval", "--manifest", str(path), "--backend", "replay",
             "--store", str(store_path)])
        run_batch(cli._load_sampled_manifest(resolve_config(args), str(path)),
                  recording, engine_config(resolve_config(args)), tmp_path / "seed.jsonl")

        for par, out in (("1", "p1"), ("8", "p8")):
            code = cli.main(["eval", "--manifest", str(path), "--backend", "replay",
                             "--store", str(store_path), "--parallelism", par,
                             "--out-dir", str(tmp_path / out)])
            assert code == 0
        p1 = (tmp_path / "p1" / "trajectories.jsonl").read_bytes()
        p8 = (tmp_path / "p8" / "trajectories.jsonl").read_bytes()
        assert p1 == p8
        s1 = (tmp_path / "p1" / "scores.jsonl").read_bytes()
        s8 = (tmp_path / "p8" / "scores.jsonl").read_bytes()
        assert s1 == s8


class TestCurate:
    def test_sft_yield_line(self, manifest_path, tmp_path, capsys):
        path, manifest = manifest_path
        script = write_script(tmp_path / "script.jsonl", manifest)
        code = cli.main(["curate-sft", "--manifest", str(path), "--backend", "scripted",
                         "--script", str(script), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "kept 100.0% of inputs" in out
        assert (tmp_path / "out" / "sft_corpus.jsonl").exists()

    def test_sft_resume_zero_new(self, manifest_path, tmp_path, capsys):
        path, manifest = manifest_path
        out_dir = tmp_path / "out"
        script = write_script(tmp_path / "s1.jsonl", manifest)
        cli.main(["curate-sft", "--manifest", str(path), "--backend", "scripted",
                  "--script", str(script), "--out-dir", str(out_dir)])
        capsys.readouterr()
        script2 = write_script(tmp_path / "s2.jsonl", manifest)
        code = cli.main(["curate-sft", "--manifest", str(path), "--backend", "scripted",
                         "--script", str(script2), "--out-dir", str(out_dir), "--resume"])
        assert code == 0
        assert "0 new" in capsys.readouterr().out

    def test_rl_histogram(self, manifest_path, tmp_path, capsys):
        path, manifest = manifest_path
        # scripted: every attempt answers wrong except attempt 1 -> mixed outcomes
        lines = []
        for sample in manifest.samples:
            for attempt in range(5):
                gold = sample.gold_answers[0] if attempt == 0 else "wrong"
                lines.extend(select_then_answer(gold))
        script = tmp_path / "script.jsonl"
        script.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
        code = cli.main(["curate-rl", "--manifest", str(path), "--backend", "scripted",
                         "--script", str(script), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "correct_count=1: 4" in out


class TestGrpoCmd:
    def test_reproducible_and_csv_header(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            code = cli.main(["grpo", "--steps", "30", "--group", "4", "--seed", "7",
                             "--out-dir", str(tmp_path / name)])
            assert code == 0
            outs.append((tmp_path / name / "curve.csv").read_bytes())
        assert outs[0] == outs[1]
        header = outs[0].decode().splitlines()[0]
        assert header == "step,mean_reward,tool_rate,clip_frac"

    def test_no_tool_reward_flag(self, tmp_path, capsys):
        code = cli.main(["grpo", "--steps", "10", "--no-tool-reward",
                         "--out-dir", str(tmp_path / "out"), "--svg"])
        assert code == 0
        assert (tmp_path / "out" / "curve.svg").exists()

    def test_invalid_group_exit_2(self, tmp_path):
        assert cli.main(["grpo", "--group", "1", "--out-dir", str(tmp_path)]) == 2


class TestReport:
    def make_score_log(self, path, rows, summary):
        with path.open("w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps(summary) + "\n")

    def test_side_by_side_with_delta(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self.make_score_log(a, [{"sample_id": "s1", "accuracy": 1, "anls": 1.0, "hit": None}],
                            {"summary": True})
        self.make_score_log(b, [{"sample_id": "s1", "accuracy": 0, "anls": 0.5, "hit": None}],
                            {"summary": True})
        code = cli.main(["report", "--scores", f"sysA={a}", f"sysB={b}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sysA" in out and "sysB" in out
        assert "-50.00" in out  # delta column

    def test_subset_rows(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        self.make_score_log(a, [{"sample_id": "s1", "accuracy": 1, "anls": 1.0, "hit": None},
                                {"sample_id": "s2", "accuracy": 0, "anls": 0.0, "hit": None}],
                            {"summary": True})
        (tmp_path / "set_s.ids").write_text("s1\n")
        (tmp_path / "set_u.ids").write_text("s2\n")
        code = cli.main(["report", "--scores", f"sys={a}", "--partition", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Set_s" in out and "Set_u" in out

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"sample_id": "s1"\n', encoding="utf-8")
        code = cli.main(["report", "--scores", f"sys={bad}"])
        assert code == 2
        assert "line 1" in capsys.readouterr().err


class TestConfig:
    def test_show_defaults(self, capsys):
        assert cli.main(["config", "show"]) == 0
        out = capsys.readouterr().out
        assert "frames=32" in out
        assert "cap=8" in out

    def test_precedence_flag_over_env_over_file(self, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("model=file-model\nframes=16\n")
        monkeypatch.setenv("VTAGENT_MODEL", "env-model")
        cli.main(["config", "show", "--config", str(cfg_file)])
        out = capsys.readouterr().out
        assert "model=env-model" in out     # env beats file
        assert "frames=16" in out           # file beats default
        cli.main(["config", "show", "--config", str(cfg_file), "--model", "flag-model"])
        assert "model=flag-model" in capsys.readouterr().out  # flag beats env

    def test_invalid_file_value_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("frames=abc\n")
        assert cli.main(["config", "show", "--config", str(cfg_file)]) == 2
        assert "invalid configuration value" in capsys.readouterr().err

    def test_file_values_take_the_schema_types(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("temperature=0.5\nout_dir=runs/a\n")
        args = cli.build_parser().parse_args(["config", "show", "--config", str(cfg_file)])
        resolved = cli.resolve_config(args)
        assert resolved.temperature == 0.5 and isinstance(resolved.temperature, float)
        assert resolved.out_dir == Path("runs/a")
        assert cli.main(["config", "show", "--config", str(cfg_file)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "temperature=0.5" in out and "out_dir=runs/a" in out
