import contextlib
import errno
import io
import json
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import request_question, request_stage, src_env, write_manifest_file
from kill_child import reply
from vtagent import cli, oracle, reporting
from vtagent.backends import (FunctionBackend, GenerationRequest, ImagePart, Message,
                              RecordingBackend, ScriptedBackend, TextPart, TranscriptStore)
from vtagent.engine import EngineConfig, run_batch
from vtagent.errors import BackendUnavailable, CacheMiss
from vtagent.metrics import SampleScore, aggregate


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


def write_replies(path: Path, episode_answers, frame_answers=()) -> Path:
    """A script of plain (not JSON) reply lines: for each episode answer, a
    selection of frames 0 and 1 and then that answer; then one answer per
    frame-wise query."""
    select = "<reasoning>r</reasoning><action>select key frame: [0, 1]</action>"
    answer = "<reasoning>r</reasoning><action>answer: {}</action>".format
    lines = [r for a in episode_answers for r in (select, answer(a))]
    lines += [answer(a) for a in frame_answers]
    path.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
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

    def test_synthetic_manifest_at_two_frames_then_a_resume_that_makes_no_call(
            self, synthetic_manifest, tmp_path, capsys):
        """The two questions about one video share one frames tuple at load
        and their sampled frames after it. The resume gets no replies, so any
        call it made would fail its sample and change the printed report."""
        argv = ["eval", "--manifest", str(synthetic_manifest), "--frames", "2",
                "--backend", "scripted", "--out-dir", str(tmp_path / "eval")]
        replies = write_replies(tmp_path / "replies.txt", ["text 0", "text 1", "text 2"])
        assert cli.main(argv + ["--script", str(replies)]) == 0
        first = capsys.readouterr().out
        assert "100.00" in first
        empty = tmp_path / "no-replies.txt"
        empty.write_text("", encoding="utf-8")
        assert cli.main(argv + ["--script", str(empty), "--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_missing_manifest_exit_2(self, tmp_path, capsys):
        code = cli.main(["eval", "--manifest", str(tmp_path / "none.jsonl"),
                         "--backend", "scripted", "--script", "x"])
        assert code == 2

    @pytest.mark.parametrize("keyframes", [[0.9, 1.7], [None]])
    def test_malformed_keyframes_exit_2(self, manifest_path, tmp_path, capsys, keyframes):
        path, _ = manifest_path
        first, *rest = path.read_text().splitlines(keepends=True)
        path.write_text(json.dumps(dict(json.loads(first), keyframes=keyframes)) + "\n"
                        + "".join(rest))
        code = cli.main(["eval", "--manifest", str(path), "--backend", "scripted",
                         "--script", str(tmp_path / "none.jsonl"),
                         "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_http_unreachable_exit_3(self, manifest_path):
        path, _ = manifest_path
        code = cli.main(["eval", "--manifest", str(path), "--backend", "http",
                         "--api-base", "http://127.0.0.1:1"])
        assert code == 3

    @pytest.mark.parametrize("flag, value, fault", [
        ("--api-key", "a\nb", "holds a control"),
        ("--api-key", "a\x00b", "holds a control"),
        ("--api-key", "ключ", "non-Latin-1"),
        ("--api-base", "http://127.0.0.1:1/a b", "holds a space"),
        ("--api-base", "http://127.0.0.1:1/\r\nX-Injected: 1", "holds a space"),
        ("--api-base", "127.0.0.1:1/v1", "not an http or https URL"),
        ("--api-base", "ftp://127.0.0.1:1/v1", "not an http or https URL"),
        ("--api-base", "http:///v1", "has no host"),
        ("--api-base", "http://127.0.0.1:port/v1", "Port"),
        ("--api-base", "http://127.0.0.1:1/v1?api-version=2024", "holds a query or a fragment"),
        ("--api-base", "http://127.0.0.1:1/v1#x", "holds a query or a fragment"),
    ], ids=["key_lf", "key_nul", "key_not_latin1", "base_space", "base_crlf",
            "base_no_scheme", "base_ftp", "base_no_host", "base_bad_port", "base_query",
            "base_fragment"])
    def test_bad_endpoint_exit_2_before_any_call(self, manifest_path, tmp_path, capsys,
                                                 flag, value, fault):
        # port 1 refuses: a setting let through would end in the preflight's exit 3
        argv = {"--api-base": "http://127.0.0.1:1", flag: value}
        code = cli.main(["eval", "--manifest", str(manifest_path[0]), "--backend", "http",
                         *(x for item in argv.items() for x in item),
                         "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert flag in err and fault in err
        assert not (tmp_path / "out").exists()

    def test_http_without_api_base_exit_2(self, manifest_path, monkeypatch, capsys):
        path, _ = manifest_path
        monkeypatch.delenv("VTAGENT_API_BASE", raising=False)
        code = cli.main(["eval", "--manifest", str(path), "--backend", "http"])
        assert code == 2
        assert "http backend requires --api-base" in capsys.readouterr().err

    def test_replay_determinism_across_parallelism(self, manifest_path, tmp_path,
                                                   oracle_backend_factory):
        path, manifest = manifest_path
        store_path = tmp_path / "store.jsonl"
        store = TranscriptStore(store_path)
        recording = RecordingBackend(oracle_backend_factory(manifest), store)
        # seed the replay store with a real run at the CLI's engine settings
        from vtagent.cli import resolve_config
        args = cli.build_parser().parse_args(
            ["eval", "--manifest", str(path), "--backend", "replay",
             "--store", str(store_path)])
        run_batch(cli._load_sampled_manifest(resolve_config(args), str(path)),
                  recording, resolve_config(args), tmp_path / "seed.jsonl")

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

    def test_oracle_replay_determinism_across_parallelism(self, manifest_path, tmp_path,
                                                          monkeypatch):
        path, _ = manifest_path
        store = tmp_path / "store.jsonl"
        # seed the replay store with a run whose replies mix malformed anchors,
        # wrong answers and frames read right and wrong
        monkeypatch.setattr(cli, "build_backend", lambda cfg: RecordingBackend(
            FunctionBackend(reply), TranscriptStore(store)))
        assert cli.main(["oracle", "--manifest", str(path), "--backend", "scripted",
                         "--out-dir", str(tmp_path / "seed")]) == 0
        monkeypatch.undo()
        outputs = {}
        for par in ("1", "8"):
            out = tmp_path / f"p{par}"
            assert cli.main(["oracle", "--manifest", str(path), "--backend", "replay",
                             "--store", str(store), "--parallelism", par,
                             "--out-dir", str(out)]) == 0
            outputs[par] = output_files(out)
        assert sorted(outputs["1"]) == ["framewise.jsonl", "scores.jsonl", "set_s.ids",
                                        "set_u.ids", "trajectories.jsonl"]
        assert outputs["1"] == outputs["8"]


    def test_oracle_writes_the_scores_eval_writes(self, manifest_path, tmp_path,
                                                  oracle_backend_factory, monkeypatch):
        path, manifest = manifest_path
        monkeypatch.setattr(cli, "build_backend",
                            lambda cfg: oracle_backend_factory(manifest))
        for command in ("eval", "oracle"):
            assert cli.main([command, "--manifest", str(path), "--backend", "scripted",
                             "--out-dir", str(tmp_path / command)]) == 0
        scores = (tmp_path / "eval" / "scores.jsonl").read_bytes()
        assert b'"split": "toy-val"' in scores
        assert (tmp_path / "oracle" / "scores.jsonl").read_bytes() == scores

    def test_oracle_prints_its_failures(self, manifest_factory, tmp_path,
                                        oracle_backend_factory, monkeypatch, capsys):
        manifest = manifest_factory(n_samples=12)
        path = write_manifest_file(manifest, tmp_path / "manifest.jsonl")
        answering = oracle_backend_factory(manifest)

        def fn(request):
            if request_question(request) == "question 3?":
                raise BackendUnavailable("HTTP 503: busy")
            return answering.complete(request)

        monkeypatch.setattr(cli, "build_backend", lambda cfg: FunctionBackend(fn))
        argv = ["--manifest", str(path), "--backend", "scripted", "--max-attempts", "1"]
        assert cli.main(["oracle", *argv, "--out-dir", str(tmp_path / "oracle")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["per-sample failures: 1", "failed frames: 4 in 1 samples"]
        assert cli.main(["eval", *argv, "--out-dir", str(tmp_path / "eval")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "per-sample failures: 1"
        # neither line when nothing failed
        monkeypatch.setattr(cli, "build_backend", lambda cfg: answering)
        assert cli.main(["oracle", *argv, "--out-dir", str(tmp_path / "ok")]) == 0
        assert "fail" not in capsys.readouterr().out

    def test_resume_after_torn_log_line(self, manifest_path, tmp_path, capsys):
        path, manifest = manifest_path
        out = tmp_path / "out"
        argv = ["eval", "--manifest", str(path), "--backend", "scripted",
                "--out-dir", str(out)]
        assert cli.main(argv + ["--script", str(write_script(tmp_path / "s1", manifest))]) == 0
        log = out / "trajectories.jsonl"
        whole = log.read_text(encoding="utf-8").splitlines(keepends=True)
        log.write_text(whole[0] + whole[1][:60], encoding="utf-8")
        # replies for the three samples left to run
        rest = replace(manifest, samples=manifest.samples[1:])
        script = write_script(tmp_path / "s2", rest)
        assert cli.main(argv + ["--script", str(script), "--resume"]) == 0
        assert log.read_text(encoding="utf-8") == "".join(whole)

    def test_store_write_failure_exits_2_and_resume_runs_only_the_rest(
            self, manifest_path, tmp_path, monkeypatch, capsys):
        path, manifest = manifest_path
        out, store = tmp_path / "out", tmp_path / "store.jsonl"
        argv = ["eval", "--manifest", str(path), "--backend", "scripted", "--store", str(store),
                "--parallelism", "1", "--out-dir", str(out)]
        open_ = Path.open
        appends = []

        def full_disk_after_four_appends(self, mode="r", *args, **kwargs):
            if self == store and mode == "a":
                appends.append(mode)
                if len(appends) > 4:  # the third sample's first reply
                    raise OSError(errno.ENOSPC, "No space left on device")
            return open_(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", full_disk_after_four_appends)
        assert cli.main(argv + ["--script", str(write_script(tmp_path / "s1", manifest))]) == 2
        assert "No space left on device" in capsys.readouterr().err
        request = GenerationRequest(messages=(Message("user", (TextPart("q"),)),))
        with pytest.raises(OSError, match="No space left on device"):
            TranscriptStore(store).record(request, "reply")
        monkeypatch.undo()
        log = out / "trajectories.jsonl"
        finished = log.read_text(encoding="utf-8")
        ids = [s.sample_id for s in manifest.samples]
        assert [json.loads(line)["sample_id"] for line in finished.splitlines()] == ids[:2]
        assert len(store.read_text(encoding="utf-8").splitlines()) == 4
        # replies for the two samples left: a resume that reran a finished one
        # would take theirs and score a sample wrong
        rest = write_script(tmp_path / "s2", replace(manifest, samples=manifest.samples[2:]))
        assert cli.main(argv + ["--script", str(rest), "--resume"]) == 0
        assert "100.00" in capsys.readouterr().out
        whole = log.read_text(encoding="utf-8")
        assert whole.startswith(finished)
        assert [json.loads(line)["sample_id"] for line in whole.splitlines()] == ids
        assert len(store.read_text(encoding="utf-8").splitlines()) == 8

    def test_resume_malformed_log_line_exit_2(self, manifest_path, tmp_path, capsys):
        path, manifest = manifest_path
        out = tmp_path / "out"
        out.mkdir()
        (out / "trajectories.jsonl").write_text('{"sampl\n{"sample_id": "q001"}\n',
                                                encoding="utf-8")
        code = cli.main(["eval", "--manifest", str(path), "--backend", "scripted",
                         "--script", str(write_script(tmp_path / "s", manifest)),
                         "--out-dir", str(out), "--resume"])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [{"foo": 1}, {"sample_id": [1], "error": "x"}])
    def test_resume_log_record_without_sample_id_exit_2(self, manifest_path, tmp_path,
                                                        capsys, record):
        path, manifest = manifest_path
        out = tmp_path / "out"
        out.mkdir()
        log = out / "trajectories.jsonl"
        log.write_text('{"sample_id": "q0000", "error": "x"}\n' + json.dumps(record) + "\n",
                       encoding="utf-8")
        code = cli.main(["eval", "--manifest", str(path), "--backend", "scripted",
                         "--script", str(write_script(tmp_path / "s", manifest)),
                         "--out-dir", str(out), "--resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err and str(log) in err and "sample_id" in err

    def test_store_line_that_is_not_utf8_exit_2(self, manifest_path, tmp_path, capsys):
        path, _ = manifest_path
        store = tmp_path / "store.jsonl"
        raw = (b'{"digest": "' + b"0" * 64 + b'", "response": "r"}\n'
               b'{"digest": "' + b"1" * 64 + b'", "response": "t\xffext 0"}\n')
        store.write_bytes(raw)
        code = cli.main(["eval", "--manifest", str(path), "--backend", "replay",
                         "--store", str(store), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"line 2: invalid UTF-8 in {store}" in capsys.readouterr().err
        assert store.read_bytes() == raw

    def test_script_line_holding_a_lone_surrogate_exit_2(self, manifest_path, tmp_path, capsys):
        path, _ = manifest_path
        script = tmp_path / "script.jsonl"
        script.write_text(json.dumps("<reasoning>r</reasoning><action>select key frame: [0]"
                                     "</action>") + "\n"
                          + r'"<reasoning>r</reasoning><action>answer: text \ud83d</action>"'
                          + "\n", encoding="utf-8")
        code = cli.main(["eval", "--manifest", str(path), "--backend", "scripted",
                         "--script", str(script), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert f"{script}:2: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_store_record_exit_2(self, manifest_path, tmp_path, capsys):
        path, _ = manifest_path
        store = tmp_path / "store.jsonl"
        store.write_text('{"foo": 1}\n', encoding="utf-8")
        code = cli.main(["eval", "--manifest", str(path), "--backend", "replay",
                         "--store", str(store), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "line 1: bad store record" in capsys.readouterr().err


def output_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestOracleSharedPool:
    """`oracle` runs its episodes and its frame-wise queries in one pool of
    --parallelism workers."""

    def test_calls_in_flight_never_exceed_parallelism(self, manifest_factory, tmp_path,
                                                      oracle_backend_factory, monkeypatch):
        manifest = manifest_factory(n_samples=6)
        path = write_manifest_file(manifest, tmp_path / "manifest.jsonl")
        answering = oracle_backend_factory(manifest)
        lock = threading.Lock()
        inflight = peak = 0

        def fn(request):
            nonlocal inflight, peak
            with lock:
                inflight += 1
                peak = max(peak, inflight)
            time.sleep(0.005)  # long enough for the calls of two pools to overlap
            with lock:
                inflight -= 1
            return answering.complete(request)

        monkeypatch.setattr(cli, "build_backend", lambda cfg: FunctionBackend(fn))
        assert cli.main(["oracle", "--manifest", str(path), "--backend", "scripted",
                         "--parallelism", "3", "--out-dir", str(tmp_path / "out")]) == 0
        assert answering.calls == 6 * (2 + 4)
        assert peak <= 3

    def test_a_frame_query_is_served_while_the_last_episode_waits(
            self, manifest_factory, tmp_path, oracle_backend_factory, monkeypatch):
        manifest = manifest_factory(n_samples=2)
        path = write_manifest_file(manifest, tmp_path / "manifest.jsonl")
        answering = oracle_backend_factory(manifest)
        frame_served = threading.Event()
        last = manifest.samples[-1].question

        def fn(request):
            if request_stage(request) == "frame":
                frame_served.set()
            elif request_question(request) == last:
                # the worker done with the first episode must take a frame
                # query meanwhile; a timeout here fails the run, not hangs it
                assert frame_served.wait(timeout=10)
            return answering.complete(request)

        monkeypatch.setattr(cli, "build_backend", lambda cfg: FunctionBackend(fn))
        out = tmp_path / "out"
        assert cli.main(["oracle", "--manifest", str(path), "--backend", "scripted",
                         "--parallelism", "2", "--out-dir", str(out)]) == 0
        assert (out / "set_s.ids").read_text(encoding="utf-8").split() == ["q000", "q001"]

    @pytest.mark.parametrize("parallelism", ["1", "2"])
    def test_fatal_error_in_an_episode_then_resume(self, parallelism, manifest_path, tmp_path,
                                                   monkeypatch):
        path, manifest = manifest_path
        argv = ["oracle", "--manifest", str(path), "--backend", "scripted",
                "--parallelism", parallelism]
        monkeypatch.setattr(cli, "build_backend", lambda cfg: FunctionBackend(reply))
        assert cli.main(argv + ["--out-dir", str(tmp_path / "whole")]) == 0
        whole = output_files(tmp_path / "whole")
        first, doomed = manifest.samples[0].question, manifest.samples[-1].question
        first_frames = []
        first_framed = threading.Event()

        def fn(request):
            stage, question = request_stage(request), request_question(request)
            if stage == "frame" and question == first:
                first_frames.append(question)
                if len(first_frames) == 4:
                    first_framed.set()
            if stage == "anchor" and question == doomed:
                if parallelism == "2":
                    # fail once the other worker has asked the first sample's
                    # last frame: that frame-wise record is still logged
                    assert first_framed.wait(timeout=10)
                raise RuntimeError("fatal")
            return reply(request)

        monkeypatch.setattr(cli, "build_backend", lambda cfg: FunctionBackend(fn))
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="fatal"):
            cli.main(argv + ["--out-dir", str(out)])
        # each log holds whole records in manifest order, and nothing is scored
        partial = output_files(out)
        assert sorted(partial) == ["framewise.jsonl", "trajectories.jsonl"]
        for name, data in partial.items():
            assert whole[name].startswith(data)
            assert all(line.endswith(b"\n") for line in data.splitlines(keepends=True))
        assert len(partial["trajectories.jsonl"].splitlines()) == len(manifest.samples) - 1
        assert len(partial["framewise.jsonl"].splitlines()) >= (parallelism == "2")
        monkeypatch.setattr(cli, "build_backend", lambda cfg: FunctionBackend(reply))
        assert cli.main(argv + ["--out-dir", str(out), "--resume"]) == 0
        assert output_files(out) == whole

    def test_one_worker_asks_every_episode_before_any_frame(self, manifest_path, tmp_path,
                                                           monkeypatch, capsys):
        path, manifest = manifest_path
        stages = []

        class Scripted(ScriptedBackend):
            def complete(self, request):
                stages.append(request_stage(request))
                return super().complete(request)

        # every episode answers right; then only frame 1 of samples 0 and 2 does
        golds = [s.gold_answers[0] for s in manifest.samples]
        replies = [r for gold in golds for r in select_then_answer(gold)]
        replies += [f"<reasoning>r</reasoning><action>answer: "
                    f"{golds[i] if i in (0, 2) and frame == 1 else 'wrong'}</action>"
                    for i in range(len(golds)) for frame in range(4)]
        monkeypatch.setattr(cli, "build_backend", lambda cfg: Scripted(replies))
        out = tmp_path / "out"
        assert cli.main(["oracle", "--manifest", str(path), "--backend", "scripted",
                         "--parallelism", "1", "--out-dir", str(out)]) == 0
        assert stages == ["anchor", "answer"] * 4 + ["frame"] * 16
        assert capsys.readouterr().out.splitlines()[:4] == [
            "video ACC.         100.00", "oracle ACC.         50.00",
            "oracle - video     -50.00", "Set_s 2  Set_u 2"]


def test_oracle_golden_outputs_fresh_and_resumed(manifest_factory, tmp_path, monkeypatch,
                                                 capsys):
    """The exact bytes `oracle` writes and prints. Fresh: frame 1 of q000
    and frame 0 of q002 read right, and frame 0 of q001 is never answered.
    Then q002's record is replaced by an error record written by hand, which
    --resume reads, with no call, as a sample whose every frame failed."""
    manifest = manifest_factory(n_samples=3, n_frames=2)
    path = write_manifest_file(manifest, tmp_path / "manifest.jsonl")
    right = {("question 0?", 1), ("question 2?", 0)}

    def fn(request):
        stage, question = request_stage(request), request_question(request)
        if stage == "anchor":
            return "<reasoning>r</reasoning>\n<action>select key frame: [0]</action>"
        if stage == "frame":
            (image,) = [p for m in request.messages for p in m.parts
                        if isinstance(p, ImagePart)]
            if (question, image.index) == ("question 1?", 0):
                raise BackendUnavailable("HTTP 503: busy")
            ok = (question, image.index) in right
        else:  # only q000's episode answers right
            ok = question == "question 0?"
        answer = f"answer {question[9]}" if ok else "blur"
        return f"<reasoning>r</reasoning>\n<action>answer: {answer}</action>"

    def no_call(request):
        raise AssertionError("a resume with every sample logged makes no call")

    out = tmp_path / "out"
    argv = ["oracle", "--manifest", str(path), "--backend", "scripted", "--out-dir", str(out)]
    monkeypatch.setattr(cli, "build_backend", lambda cfg: FunctionBackend(fn))
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (
        "video ACC.          33.33\n"
        "oracle ACC.         66.67\n"
        "oracle - video     +33.33\n"
        "Set_s 2  Set_u 1\n"
        "failed frames: 1 in 1 samples\n")
    framewise = (
        b'{"sample_id": "q000", "vector": [false, true], "any_correct": true,'
        b' "failed_frames": []}\n'
        b'{"sample_id": "q001", "vector": [false, false], "any_correct": false,'
        b' "failed_frames": [0]}\n'
        b'{"sample_id": "q002", "vector": [true, false], "any_correct": true,'
        b' "failed_frames": []}\n')
    assert (out / "framewise.jsonl").read_bytes() == framewise
    assert (out / "set_s.ids").read_bytes() == b"q000\nq002\n"
    assert (out / "set_u.ids").read_bytes() == b"q001\n"

    by_hand = framewise.splitlines(keepends=True)[:2] + [
        b'{"sample_id": "q002", "error": "HTTP 503: busy"}\n']
    (out / "framewise.jsonl").write_bytes(b"".join(by_hand))
    monkeypatch.setattr(cli, "build_backend", lambda cfg: FunctionBackend(no_call))
    assert cli.main(argv + ["--resume"]) == 0
    assert capsys.readouterr().out == (
        "video ACC.          33.33\n"
        "oracle ACC.         33.33\n"
        "oracle - video      +0.00\n"
        "Set_s 1  Set_u 2\n"
        "failed frames: 3 in 2 samples\n")
    assert (out / "framewise.jsonl").read_bytes() == b"".join(by_hand)
    assert (out / "set_s.ids").read_bytes() == b"q000\n"
    assert (out / "set_u.ids").read_bytes() == b"q001\nq002\n"


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
        argv = ["curate-sft", "--manifest", str(path), "--backend", "scripted",
                "--out-dir", str(out_dir)]
        # samples 0 and 2 are kept at their first attempt, 1 and 3 are dropped
        # after five wrong answers
        lines = []
        for i, sample in enumerate(manifest.samples):
            for _ in range(1 if i % 2 == 0 else 5):
                lines.extend(select_then_answer(sample.gold_answers[0] if i % 2 == 0
                                                else "wrong"))
        script = tmp_path / "s1.jsonl"
        script.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
        assert cli.main(argv + ["--script", str(script)]) == 0
        first = capsys.readouterr().out
        assert "kept 2, dropped 2, failed 0" in first
        outputs = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert sorted(outputs) == ["sft_corpus.jsonl", "sft_outcomes.jsonl"]

        empty = tmp_path / "s2.jsonl"  # any call would fail its sample
        empty.write_text("", encoding="utf-8")
        assert cli.main(argv + ["--script", str(empty), "--resume"]) == 0
        assert capsys.readouterr().out == first
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == outputs

    @pytest.mark.parametrize("record, key", [({"sample_id": "q0000"}, "outcome"),
                                             ({"sample_id": "q0000", "outcome": "kept"}, "line"),
                                             ({"sample_id": "q0000", "outcome": "weird"},
                                              "outcome")])
    def test_resume_outcome_record_lacking_a_key_exit_2(self, manifest_path, tmp_path, capsys,
                                                        record, key):
        path, manifest = manifest_path
        out = tmp_path / "out"
        out.mkdir()
        log = out / "sft_outcomes.jsonl"
        log.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code = cli.main(["curate-sft", "--manifest", str(path), "--backend", "scripted",
                         "--script", str(write_script(tmp_path / "s", manifest)),
                         "--out-dir", str(out), "--resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 1" in err and str(log) in err and repr(key) in err

    @pytest.mark.parametrize("command", ["curate-sft", "curate-rl"])
    def test_resume_log_with_old_failed_records_makes_no_call(self, manifest_path, tmp_path,
                                                              capsys, command):
        """Logs written before a failed sample's record became run_units'
        {"sample_id", "error"} carry "outcome": "failed" in it too: a resume
        skips those samples and prints the same totals."""
        path, manifest = manifest_path
        golds = [s.gold_answers[0] for s in manifest.samples]
        # kept, dropped, kept; the script then runs out, which fails the last sample
        answers = ([[golds[0]], ["wrong"] * 5, [golds[2]]] if command == "curate-sft" else
                   [[golds[0]] + ["wrong"] * 4, ["wrong"] * 5, [golds[2]] + ["wrong"] * 4])
        script = tmp_path / "s1.jsonl"
        script.write_text("".join(json.dumps(l) + "\n" for sample_answers in answers
                                  for a in sample_answers for l in select_then_answer(a)),
                          encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--manifest", str(path), "--backend", "scripted", "--out-dir", str(out)]
        assert cli.main(argv + ["--script", str(script)]) == 0
        first = capsys.readouterr().out
        assert "kept 2, dropped 1, failed 1" in first
        log = out / f"{command[len('curate-'):]}_outcomes.jsonl"
        *head, failed = log.read_text(encoding="utf-8").splitlines(keepends=True)
        assert json.loads(failed) == {"sample_id": "q003", "error": "script exhausted"}
        old = head + ['{"sample_id": "q003", "outcome": "failed", "error": "script exhausted"}\n']
        log.write_text("".join(old), encoding="utf-8")
        outputs = {p.name: p.read_bytes() for p in out.iterdir()}

        empty = tmp_path / "s2.jsonl"  # any call would fail its sample
        empty.write_text("", encoding="utf-8")
        assert cli.main(argv + ["--script", str(empty), "--resume"]) == 0
        assert capsys.readouterr().out == first
        assert {p.name: p.read_bytes() for p in out.iterdir()} == outputs

    @pytest.mark.parametrize("command, answers, kept", [
        # right at once, right on the second try, never right (dropped)
        ("curate-sft", ["text 0", "wrong", "text 1", "wrong", "wrong"], ["q0000", "q0001"]),
        # right then wrong, right twice (dropped), wrong then right
        ("curate-rl", ["text 0", "wrong", "text 1", "text 1", "wrong", "text 2"],
         ["q0000", "q0002"]),
    ])
    def test_two_attempts_on_the_synthetic_manifest(self, command, answers, kept,
                                                    synthetic_manifest, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main([command, "--manifest", str(synthetic_manifest), "--backend", "scripted",
                         "--max-attempts", "2", "--out-dir", str(out), "--script",
                         str(write_replies(tmp_path / "replies.txt", answers))]) == 0
        assert "kept 2, dropped 1, failed 0" in capsys.readouterr().out
        corpus = out / f"{command[len('curate-'):]}_corpus.jsonl"
        lines = corpus.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["sample_id"] for line in lines] == kept

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


@pytest.mark.parametrize("case", ["replay-store-dir", "recording-store-dir", "manifest-dir",
                                  "scores-dir", "script-dir", "script-missing", "config-dir"])
def test_directory_or_missing_input_exit_2(case, manifest_path, tmp_path, capsys):
    path, manifest = manifest_path
    folder = tmp_path / "folder"
    folder.mkdir()
    missing = tmp_path / "missing.jsonl"
    out = tmp_path / "out"
    script = write_script(tmp_path / "script.jsonl", manifest)
    scripted = ["eval", "--manifest", str(path), "--out-dir", str(out),
                "--backend", "scripted", "--script", str(script)]
    argv, named = {
        "replay-store-dir": (["eval", "--manifest", str(path), "--out-dir", str(out),
                              "--backend", "replay", "--store", str(folder)], folder),
        "recording-store-dir": (scripted + ["--store", str(folder)], folder),
        "manifest-dir": (scripted + ["--manifest", str(folder)], folder),
        "scores-dir": (["report", "--scores", f"sys={folder}"], folder),
        "script-dir": (scripted + ["--script", str(folder)], folder),
        "script-missing": (scripted + ["--script", str(missing)], missing),
        "config-dir": (scripted + ["--config", str(folder)], folder),
    }[case]
    assert cli.main(argv) == 2
    assert str(named) in capsys.readouterr().err
    assert not out.exists()


FILE_FAULTS = ["manifest-not-utf8", "config-not-utf8", "script-not-utf8", "set_s-not-utf8",
               "trajectories-dir", "curve-dir", "report-csv-dir", "store-dir", "scores-enospc"]


@pytest.mark.parametrize("case", FILE_FAULTS)
def test_file_that_cannot_be_read_or_written_exit_2(case, manifest_path, tmp_path,
                                                    monkeypatch, capsys):
    path, manifest = manifest_path
    out = tmp_path / "out"
    folder = tmp_path / "folder"
    folder.mkdir()
    not_utf8 = tmp_path / "not-utf8"
    not_utf8.write_bytes(b"frames=2\n\xff\n")
    scores = tmp_path / "scores.jsonl"
    reporting.write_score_log([SampleScore("q000", 1, 1.0)],
                              aggregate([SampleScore("q000", 1, 1.0)]), scores)
    part = tmp_path / "part"
    oracle.write_partition(oracle.Partition(set_s=("q000",), set_u=()), part)
    scripted = ["eval", "--manifest", str(path), "--out-dir", str(out),
                "--backend", "scripted", "--script",
                str(write_script(tmp_path / "script.jsonl", manifest))]
    report = ["report", "--scores", f"sys={scores}"]
    if case == "set_s-not-utf8":
        (part / "set_s.ids").write_bytes(b"q000\n\xff\n")
    elif case in ("trajectories-dir", "curve-dir"):
        (out / {"trajectories-dir": "trajectories.jsonl", "curve-dir": "curve.csv"}[case]
         ).mkdir(parents=True)
    elif case == "scores-enospc":
        open_ = Path.open

        def full_disk_at_scores(self, mode="r", *args, **kwargs):
            if self.name == "scores.jsonl.tmp" and mode == "w":
                raise OSError(errno.ENOSPC, "No space left on device")
            return open_(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", full_disk_at_scores)
    argv = {
        "manifest-not-utf8": scripted + ["--manifest", str(not_utf8)],
        "config-not-utf8": scripted + ["--config", str(not_utf8)],
        "script-not-utf8": scripted + ["--script", str(not_utf8)],
        "set_s-not-utf8": report + ["--partition", str(part)],
        "trajectories-dir": scripted,
        "curve-dir": ["grpo", "--steps", "1", "--out-dir", str(out)],
        "report-csv-dir": report + ["--csv", str(folder)],
        "store-dir": scripted + ["--store", str(folder)],
        "scores-enospc": scripted,
    }[case]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# what str.splitlines() ends a line at besides \n, \r\n and \r: in a script,
# config or partition file each stays inside its line
SEPARATORS = {"u2028": "\u2028", "u2029": "\u2029", "u0085": "\x85", "x0b": "\x0b",
              "x0c": "\x0c", "x1c": "\x1c", "x1d": "\x1d", "x1e": "\x1e"}


def _config(cfg_file):
    return cli.resolve_config(cli.build_parser().parse_args(
        ["config", "show", "--config", str(cfg_file)]))


@pytest.mark.parametrize("sep", SEPARATORS.values(), ids=SEPARATORS.keys())
def test_a_separator_stays_inside_its_script_line(sep, tmp_path):
    script = tmp_path / "script.txt"
    script.write_text(f"select{sep}more\nanswer\n", encoding="utf-8")
    backend = cli.build_backend(cli.RunConfig(backend="scripted", script=script))
    assert [backend.complete(None) for _ in range(2)] == [f"select{sep}more", "answer"]
    with pytest.raises(CacheMiss):
        backend.complete(None)


@pytest.mark.parametrize("sep", SEPARATORS.values(), ids=SEPARATORS.keys())
def test_a_separator_stays_inside_its_config_value(sep, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"model=gpt{sep}x\nframes=4\n", encoding="utf-8")
    resolved = _config(cfg_file)
    assert (resolved.model, resolved.frames) == (f"gpt{sep}x", 4)


@pytest.mark.parametrize("sep", SEPARATORS.values(), ids=SEPARATORS.keys())
def test_a_separator_stays_inside_its_partition_id(sep, tmp_path):
    partition = oracle.Partition(set_s=(f"q{sep}1", f" {sep} "), set_u=(f"{sep}q2",))
    oracle.write_partition(partition, tmp_path)
    assert oracle.read_partition(tmp_path) == partition


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_script_config_and_partition_lines_end_at(ending, tmp_path):
    script = tmp_path / "script.txt"
    script.write_bytes(ending.join(["select", "", "answer", ""]).encode())
    backend = cli.build_backend(cli.RunConfig(backend="scripted", script=script))
    assert [backend.complete(None) for _ in range(2)] == ["select", "answer"]
    with pytest.raises(CacheMiss):
        backend.complete(None)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(ending.join(["# a comment", "model=m", "frames=4", ""]).encode())
    resolved = _config(cfg_file)
    assert (resolved.model, resolved.frames) == ("m", 4)
    (tmp_path / "set_s.ids").write_bytes(ending.join(["q1", "q 2", ""]).encode())
    (tmp_path / "set_u.ids").write_bytes(b"")
    assert oracle.read_partition(tmp_path) == oracle.Partition(set_s=("q1", "q 2"), set_u=())


def _set_field(path, line_no, key, value):
    """Set key to value in the record on line_no of the JSON-lines file at
    path, written as json.dumps writes it (a lone surrogate as its escape)."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[line_no - 1])
    record[key] = value
    lines[line_no - 1] = json.dumps(record) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("case", ["manifest-question", "manifest-sample_id", "store-response",
                                  "score-log", "run-log"])
def test_json_line_holding_a_lone_surrogate_exit_2(case, manifest_path, tmp_path, capsys):
    path, manifest = manifest_path
    out, store = tmp_path / "out", tmp_path / "store.jsonl"
    scripted = ["eval", "--manifest", str(path), "--out-dir", str(out), "--backend", "scripted",
                "--script", str(write_script(tmp_path / "script.jsonl", manifest))]
    if case in ("store-response", "score-log", "run-log"):
        assert cli.main(scripted + ["--store", str(store)]) == 0
    bad, key, argv = {
        "manifest-question": (path, "question", scripted),
        "manifest-sample_id": (path, "sample_id", scripted),
        "store-response": (store, "response",
                           ["eval", "--manifest", str(path), "--out-dir", str(tmp_path / "replay"),
                            "--backend", "replay", "--store", str(store)]),
        "score-log": (out / "scores.jsonl", "sample_id",
                      ["report", "--scores", f"sys={out / 'scores.jsonl'}"]),
        "run-log": (out / "trajectories.jsonl", "answer", scripted + ["--resume"]),
    }[case]
    _set_field(bad, 2, key, "text \ud800")
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: line 2: record in {bad} holds a lone surrogate\n"


@pytest.mark.parametrize("line_break", ["\n", "\r"], ids=["lf", "cr"])
def test_sample_id_holding_a_line_break_exit_2(line_break, manifest_path, tmp_path, capsys):
    """set_s.ids and set_u.ids hold one sample_id a line."""
    path, manifest = manifest_path
    sample_id = f"q{line_break}1"
    _set_field(path, 3, "sample_id", sample_id)
    out = tmp_path / "out"
    code = cli.main(["oracle", "--manifest", str(path), "--out-dir", str(out),
                     "--backend", "scripted",
                     "--script", str(write_script(tmp_path / "script.jsonl", manifest))])
    assert code == 2
    assert capsys.readouterr().err == f"error: line 3: sample_id {sample_id!r} holds a line break\n"
    assert not out.exists()


# a logged record that lacks what its pipeline reads back, after one that it
# can read: (command, log, good record, bad record, named fault); curation's
# other cases are in TestCurate
RESUME_FAULTS = {
    "eval-no-answer": ("eval", "trajectories.jsonl", {"error": "x"}, {}, "'answer'"),
    "eval-no-keyframes": ("eval", "trajectories.jsonl", {"error": "x"}, {"answer": "a"},
                          "'keyframe_ids'"),
    "oracle-no-vector": ("oracle", "framewise.jsonl", {"vector": [False] * 4}, {}, "'vector'"),
    "eval-answer-not-string": ("eval", "trajectories.jsonl", {"error": "x"},
                               {"answer": 5, "keyframe_ids": [0]}, "no string 'answer'"),
    "eval-keyframes-not-ints": ("eval", "trajectories.jsonl", {"error": "x"},
                                {"answer": "a", "keyframe_ids": ["0"]},
                                "no list of ints 'keyframe_ids'"),
    "oracle-vector-not-list": ("oracle", "framewise.jsonl", {"vector": [False] * 4},
                               {"vector": 1}, "no list 'vector'"),
    "oracle-vector-not-bools": ("oracle", "framewise.jsonl", {"vector": [False] * 4},
                                {"vector": [0] * 4}, "not a bool"),
    "oracle-vector-wrong-length": ("oracle", "framewise.jsonl", {"vector": [False] * 4},
                                   {"vector": [True]}, "1 entries for 4 frames"),
    "oracle-failed-frames-not-list": ("oracle", "framewise.jsonl", {"vector": [False] * 4},
                                      {"vector": [False] * 4, "failed_frames": 5},
                                      "'failed_frames'"),
    "sft-line-not-object": ("curate-sft", "sft_outcomes.jsonl", {"outcome": "dropped"},
                            {"outcome": "kept", "line": 5}, "no JSON object 'line'"),
    "rl-line-not-object": ("curate-rl", "rl_outcomes.jsonl", {"outcome": "dropped"},
                           {"outcome": "kept", "line": 5}, "no JSON object 'line'"),
    "rl-line-no-count": ("curate-rl", "rl_outcomes.jsonl", {"outcome": "dropped"},
                         {"outcome": "kept", "line": {}}, "int 'correct_count'"),
    "rl-line-bool-count": ("curate-rl", "rl_outcomes.jsonl", {"outcome": "dropped"},
                           {"outcome": "kept", "line": {"correct_count": True}},
                           "int 'correct_count'"),
    "rl-line-str-count": ("curate-rl", "rl_outcomes.jsonl", {"outcome": "dropped"},
                          {"outcome": "kept", "line": {"correct_count": "1"}},
                          "int 'correct_count'"),
}


@pytest.mark.parametrize("case", RESUME_FAULTS)
def test_resume_record_its_pipeline_cannot_read_exit_2(case, manifest_path, tmp_path, capsys):
    command, name, good, bad, fault = RESUME_FAULTS[case]
    path, manifest = manifest_path
    out = tmp_path / "out"
    out.mkdir()
    log = out / name
    ids = [s.sample_id for s in manifest.samples]
    logged = (json.dumps({"sample_id": ids[1], **good}) + "\n"
              + json.dumps({"sample_id": ids[0], **bad}) + "\n")
    log.write_text(logged, encoding="utf-8")
    code = cli.main([command, "--manifest", str(path), "--backend", "scripted",
                     "--script", str(write_script(tmp_path / "s", manifest)),
                     "--out-dir", str(out), "--resume"])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err and str(log) in err and fault in err
    assert log.read_text(encoding="utf-8") == logged


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

    def test_many_frames_few_draws_writes_the_curve_and_its_plot(self, tmp_path, capsys):
        """256 frames and 2 draws a group: the log-prob tables fill few of
        their answer rows."""
        out = tmp_path / "out"
        assert cli.main(["grpo", "--steps", "20", "--env-frames", "256", "--group", "2",
                         "--svg", "--out-dir", str(out)]) == 0
        assert len((out / "curve.csv").read_text(encoding="utf-8").splitlines()) == 1 + 20
        assert (out / "curve.svg").read_text(encoding="utf-8").count("<polyline") == 2

    @pytest.mark.parametrize("flag", ["--eps", "--lr"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_eps_or_lr_exit_2_before_any_output(self, tmp_path, capsys, flag,
                                                           value):
        out = tmp_path / "out"
        assert cli.main(["grpo", "--steps", "3", flag, value, "--out-dir", str(out)]) == 2
        assert "eps and lr must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--steps", "0"), ("--steps", "-3"),
                                             ("--env-frames", "0"), ("--vocab", "0")])
    def test_invalid_size_exit_2_before_any_output(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert cli.main(["grpo", flag, value, "--out-dir", str(out)]) == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()


def test_failed_score_log_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "scores.jsonl"
    scores = [SampleScore("q000", 1, 1.0), SampleScore("q001", 0, 0.25)]
    report = aggregate(scores, split_tag="toy-val")
    reporting.write_score_log(scores, report, path)
    before = path.read_bytes()
    dumped = []

    def dumps(obj, **kwargs):
        if dumped:
            raise OSError("disk full")
        dumped.append(obj)
        return json.dumps(obj, **kwargs)

    monkeypatch.setattr(reporting, "json", SimpleNamespace(dumps=dumps))
    with pytest.raises(OSError, match="disk full"):
        reporting.write_score_log(scores[::-1], report, path)
    assert path.read_bytes() == before


def test_failed_score_log_write_removes_its_temporary_file(tmp_path):
    path = tmp_path / "scores.jsonl"
    scores = [SampleScore("q000", 1, 1.0)]
    reporting.write_score_log(scores, aggregate(scores, split_tag="toy-val"), path)
    before = path.read_bytes()
    bad = [SampleScore("q000", object(), 1.0)]  # an accuracy json cannot write
    with pytest.raises(TypeError):
        reporting.write_score_log(bad, aggregate(scores, split_tag="toy-val"), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.jsonl"]


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

    def test_subset_hit_rate_from_scored_hits(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        self.make_score_log(a, [{"sample_id": "s1", "accuracy": 1, "anls": 1.0, "hit": True},
                                {"sample_id": "s2", "accuracy": 0, "anls": 0.0, "hit": False},
                                {"sample_id": "s3", "accuracy": 1, "anls": 1.0, "hit": True},
                                {"sample_id": "s4", "accuracy": 0, "anls": 0.0, "hit": None}],
                            {"summary": True})
        (tmp_path / "set_s.ids").write_text("s1\ns2\ns3\ns4\n")
        (tmp_path / "set_u.ids").write_text("s9\n")  # not scored: an empty subset
        assert cli.main(["report", "--scores", f"sys={a}", "--partition", str(tmp_path)]) == 0
        rows = {line.split()[1]: line.split()[2:] for line in capsys.readouterr().out.splitlines()
                if line.startswith("sys ")}
        assert rows["Set_s"] == ["4", "50.00", "66.67"]  # hit over s1-s3
        assert rows["Set_u"] == ["0", "-", "-"]

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        record = {"sample_id": "s1", "accuracy": 1, "anls": 1.0, "hit": None}
        good = json.dumps(record) + "\n"
        faults = [{"accuracy": "x"}, {"sample_id": 1}, {"accuracy": 1.9}, {"accuracy": True},
                  {"accuracy": 2}, {"anls": "nan"}, {"anls": float("nan")},
                  {"anls": float("inf")}, {"anls": 1.5}, {"anls": -0.5}, {"anls": True},
                  {"hit": "no"}, {"hit": 1}]
        texts = [(1, '{"sample_id": "s1"\n'), (2, good + "[1, 2]\n")]
        texts += [(2, good + json.dumps({**record, **fault}) + "\n") for fault in faults]
        texts += [(2, good + json.dumps({k: v for k, v in record.items() if k != key}) + "\n")
                  for key in record]
        for line_no, text in texts:
            bad.write_text(text, encoding="utf-8")
            code = cli.main(["report", "--scores", f"sys={bad}"])
            assert code == 2, text
            captured = capsys.readouterr()
            assert f"line {line_no}" in captured.err and str(bad) in captured.err
            assert captured.out == ""

    def test_partition_the_oracle_wrote_on_the_synthetic_manifest(self, synthetic_manifest,
                                                                  tmp_path, capsys):
        # the three episodes answer right; of the six frame-wise queries, one
        # a frame in order, frame 0 of q0000 and frame 1 of q0002 read right
        out = tmp_path / "oracle"
        replies = write_replies(tmp_path / "replies.txt", ["text 0", "text 1", "text 2"],
                                ["text 0", "wrong", "wrong", "wrong", "wrong", "text 2"])
        assert cli.main(["oracle", "--manifest", str(synthetic_manifest), "--frames", "2",
                         "--backend", "scripted", "--parallelism", "1", "--script",
                         str(replies), "--out-dir", str(out)]) == 0
        assert "Set_s 2  Set_u 1" in capsys.readouterr().out.splitlines()
        assert (out / "set_s.ids").read_text(encoding="utf-8").split() == ["q0000", "q0002"]
        assert cli.main(["report", "--scores", f"agent={out / 'scores.jsonl'}",
                         "--partition", str(out)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows[-2:] == [["agent", "Set_s", "2", "100.00", "-"],
                             ["agent", "Set_u", "1", "100.00", "-"]]

    @pytest.mark.parametrize("named", [False, True], ids=["stem", "name=path"])
    def test_repeated_system_name_exit_2(self, tmp_path, capsys, named):
        specs = []
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            log = tmp_path / d / "scores.jsonl"
            self.make_score_log(log, [{"sample_id": "s1", "accuracy": 1, "anls": 1.0,
                                       "hit": None}], {"summary": True})
            specs.append(f"x={log}" if named else str(log))
        assert cli.main(["report", "--scores", *specs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("'x'" if named else "'scores'") in captured.err

    def test_missing_score_log_exit_2(self, tmp_path, capsys):
        assert cli.main(["report", "--scores", f"sys={tmp_path / 'none.jsonl'}"]) == 2
        assert str(tmp_path / "none.jsonl") in capsys.readouterr().err

    def test_torn_last_line_exit_2_and_the_log_left_as_it_is(self, tmp_path, capsys):
        path = tmp_path / "a.jsonl"
        self.make_score_log(path, [{"sample_id": "s1", "accuracy": 1, "anls": 1.0, "hit": None}],
                            {"summary": True})
        raw = path.read_bytes()[:-5]
        path.write_bytes(raw)
        assert cli.main(["report", "--scores", f"sys={path}"]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and str(path) in err
        assert path.read_bytes() == raw

    def test_last_line_without_newline_read_and_the_log_left_as_it_is(self, tmp_path, capsys):
        path = tmp_path / "a.jsonl"
        self.make_score_log(path, [{"sample_id": "s1", "accuracy": 1, "anls": 1.0, "hit": None},
                                   {"sample_id": "s2", "accuracy": 0, "anls": 0.0, "hit": None}],
                            {"summary": True})
        raw = path.read_bytes()
        path.write_bytes(raw[:raw.rindex(b"\n", 0, -1) + 1]
                         + b'{"sample_id": "s3", "accuracy": 1, "anls": 1.0, "hit": null}')
        raw = path.read_bytes()
        assert cli.main(["report", "--scores", f"sys={path}"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[:3] == ["sys", "3", "66.67"]
        assert path.read_bytes() == raw

    def test_repeated_sample_id_exit_2(self, tmp_path, capsys):
        path = tmp_path / "dup.jsonl"
        self.make_score_log(path, [{"sample_id": "s1", "accuracy": 1, "anls": 1.0, "hit": None},
                                   {"sample_id": "s1", "accuracy": 0, "anls": 0.0, "hit": None}],
                            {"summary": True})
        assert cli.main(["report", "--scores", f"sys={path}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"line 2: bad score record in {path}: repeated sample_id 's1'" in captured.err

    @pytest.mark.parametrize("set_s,set_u,name,line", [
        ("s1\ns2\ns1\n", "", "set_s.ids", 3),
        ("s1\n", "s2\n\ns1\n", "set_u.ids", 3),
    ], ids=["in-one-file", "in-both-files"])
    def test_partition_listing_an_id_twice_exit_2(self, tmp_path, capsys, set_s, set_u, name,
                                                  line):
        a = tmp_path / "a.jsonl"
        self.make_score_log(a, [{"sample_id": "s1", "accuracy": 1, "anls": 1.0, "hit": None},
                                {"sample_id": "s2", "accuracy": 0, "anls": 0.0, "hit": None}],
                            {"summary": True})
        (tmp_path / "set_s.ids").write_text(set_s, encoding="utf-8")
        (tmp_path / "set_u.ids").write_text(set_u, encoding="utf-8")
        assert cli.main(["report", "--scores", f"sys={a}", "--partition", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"line {line}: sample_id 's1' in {tmp_path / name} is listed twice" in captured.err

    @pytest.mark.parametrize("missing,as_dir", [("set_s.ids", False), ("set_u.ids", False),
                                                ("set_s.ids", True)])
    def test_missing_partition_file_exit_2(self, tmp_path, capsys, missing, as_dir):
        a = tmp_path / "a.jsonl"
        self.make_score_log(a, [{"sample_id": "s1", "accuracy": 1, "anls": 1.0, "hit": None}],
                            {"summary": True})
        part = tmp_path / "part"
        part.mkdir()
        for name in {"set_s.ids", "set_u.ids"} - {missing}:
            (part / name).write_text("s1\n")
        if as_dir:
            (part / missing).mkdir()
        assert cli.main(["report", "--scores", f"sys={a}", "--partition", str(part)]) == 2
        assert str(part / missing) in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["grpo", "--parallelism", "2"],
    ["report", "--scores", "a.jsonl", "--resume"],
    ["curate-sft", "--manifest", "m.jsonl", "--temperature", "0.5"],
    ["config", "show", "--store", "x"],
    ["config", "show", "--script", "x"],
    ["config", "show", "--resume"],
])
def test_command_rejects_settings_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


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

    @pytest.mark.parametrize("setting, value, source", [
        pytest.param(setting, value, source, id=f"{name}-{source}")
        for setting, value, name, sources in [
            ("temperature", "nan", "nan", ("flag", "file")),
            ("temperature", "inf", "inf", ("flag", "file")),
            ("temperature", "-1", "-1", ("flag", "file")),
            ("frames", "0", "frames=0", ("flag", "file")),
            ("frames", "-3", "frames=-3", ("flag", "file")),
            ("cap", "0", "cap=0", ("flag", "file")),
            ("max_attempts", "0", "max_attempts=0", ("flag", "file")),
            ("parallelism", "0", "parallelism=0", ("flag", "file")),
            ("fallback", "bogus", "fallback=bogus", ("file",)),  # no flag
        ]
        for source in sources])
    def test_bad_temperature_exit_2_before_any_call(self, source, setting, value,
                                                    manifest_path, tmp_path, monkeypatch,
                                                    capsys):
        path, _ = manifest_path
        built = []
        monkeypatch.setattr(cli, "build_backend", built.append)
        out = tmp_path / "out"
        out.mkdir()
        finished = '{"sample_id": "s1", "answer": "stop"}\n'
        (out / "trajectories.jsonl").write_text(finished)
        argv = ["eval", "--manifest", str(path), "--backend", "scripted", "--script", "x",
                "--out-dir", str(out)]
        if source == "flag":
            argv.append(f"--{setting.replace('_', '-')}={value}")
        else:
            (tmp_path / "run.cfg").write_text(f"{setting}={value}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert cli.main(argv) == 2
        assert f"{setting} must be" in capsys.readouterr().err
        assert built == []
        assert [p.name for p in out.iterdir()] == ["trajectories.jsonl"]
        assert (out / "trajectories.jsonl").read_text() == finished

    @pytest.mark.parametrize("argv", [["config", "show"], ["grpo", "--steps", "1"]])
    def test_bad_file_setting_exit_2(self, argv, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("cap=0\n")
        out = tmp_path / "out"
        assert cli.main(argv + ["--config", str(tmp_path / "run.cfg"),
                                "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert "cap must be >= 1, got 0" in captured.err and captured.out == ""
        assert not out.exists()

    def test_unknown_file_key_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("frames=16\nmax_attempt=2\n")
        assert cli.main(["config", "show", "--config", str(cfg_file)]) == 2
        assert f"{cfg_file}:2: unknown setting 'max_attempt'" in capsys.readouterr().err

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


def _parse(parser, argv):
    """(exit code or parsed settings, stdout, stderr) of parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = sorted((k, str(v)) for k, v in vars(parser.parse_args(argv)).items())
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_one_command_parser_prints_and_parses_as_the_full_parser(name):
    for argv in ([name, "--help"], [name], [name, "--bogus"], [name, "show", "extra"],
                 [name, "--manifest", "m.jsonl", "--frames", "8"], [name, "--steps", "x"],
                 [name, "--scores", "a.jsonl", "--csv", "t.csv"], [name, "show"]):
        assert _parse(cli.build_parser(name), argv) == _parse(cli.build_parser(), argv)


@pytest.mark.parametrize("argv", [["--help"], ["no-such-command"], [], ["-h", "eval"]])
def test_main_without_a_command_first_uses_the_full_parser(argv, capsys):
    expected = _parse(cli.build_parser(), argv)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert (exc.value.code, *capsys.readouterr()) == expected


@pytest.mark.parametrize("code", [
    "import vtagent.cli",
    "from vtagent import cli; cli.main(['config', 'show'])",
])
def test_cli_leaves_numpy_to_grpo(code):
    subprocess.run([sys.executable, "-c", code + "\nimport sys\n"
                    "assert 'numpy' not in sys.modules, 'numpy imported'"],
                   env=src_env(), check=True, capture_output=True)


@pytest.mark.parametrize("command", ["eval", "grpo"])
def test_out_dir_naming_a_file_exit_2(command, manifest_path, tmp_path, capsys):
    path, manifest = manifest_path
    out = tmp_path / "out"
    out.write_text("a file\n")
    argv = {"eval": ["eval", "--manifest", str(path), "--backend", "scripted",
                     "--script", str(write_script(tmp_path / "script.jsonl", manifest))],
            "grpo": ["grpo", "--steps", "1"]}[command]
    assert cli.main(argv + ["--out-dir", str(out)]) == 2
    assert str(out) in capsys.readouterr().err
    assert out.read_text() == "a file\n"
