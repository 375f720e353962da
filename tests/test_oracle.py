import json
from dataclasses import replace

import pytest

from conftest import request_question, request_stage
from vtagent import oracle
from vtagent.backends import FunctionBackend, ImagePart
from vtagent.data_model import DatasetManifest
from vtagent.engine import ANSWER_TEMPLATE, EngineConfig, derive_seed, run_units
from vtagent.errors import BackendUnavailable, MalformedRecord
from vtagent.metrics import SampleScore
from vtagent.reporting import subset_table


def cfg(**kwargs):
    defaults = dict(max_attempts=1)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


def frame_records(manifest, backend, config, log):
    """The frame-wise job alone through the runner: every sample's record."""
    (records,) = run_units([oracle.framewise_job(manifest, backend, config, log)],
                           config.parallelism)
    return records


def upper_bound(manifest, backend, config, log):
    """The report of the frame-wise job's records."""
    return oracle.oracle_report(manifest, frame_records(manifest, backend, config, log))


def record(*vector, failed=()):
    return {"sample_id": "s", "vector": list(vector), "any_correct": any(vector),
            "failed_frames": list(failed)}


def frame_backend(manifest: DatasetManifest, correct_frames: dict[str, set[int]]):
    """Correct only when asked about a listed frame in isolation."""
    golds = {s.question: s.gold_answers[0] for s in manifest.samples}

    def fn(request):
        question = request_question(request)
        if request_stage(request) == "frame":
            (image,) = [p for m in request.messages for p in m.parts
                        if isinstance(p, ImagePart)]
            if image.index in correct_frames.get(question, set()):
                return f"<reasoning>seen</reasoning>\n<action>answer: {golds[question]}</action>"
        return "<reasoning>blur</reasoning>\n<action>answer: cannot tell</action>"

    return FunctionBackend(fn)


class TestFramewiseEval:
    def test_vector_and_any(self, manifest_factory):
        manifest = manifest_factory(n_samples=1, n_frames=4)
        sample = manifest.samples[0]
        backend = frame_backend(manifest, {sample.question: {2}})
        result = oracle.framewise_eval(sample, backend, cfg())
        assert result == {"sample_id": sample.sample_id, "vector": [False, False, True, False],
                          "any_correct": True, "failed_frames": []}

    def test_all_wrong(self, manifest_factory):
        manifest = manifest_factory(n_samples=1, n_frames=3)
        sample = manifest.samples[0]
        result = oracle.framewise_eval(sample, frame_backend(manifest, {}), cfg())
        assert not result["any_correct"]

    def test_oracle_backend_all_true(self, manifest_factory):
        manifest = manifest_factory(n_samples=1, n_frames=3)
        sample = manifest.samples[0]
        backend = frame_backend(manifest, {sample.question: {0, 1, 2}})
        result = oracle.framewise_eval(sample, backend, cfg())
        assert result["vector"] == [True, True, True]

    def test_frame_requests_are_pinned(self, manifest_factory):
        manifest = manifest_factory(n_samples=1, n_frames=3)
        sample = manifest.samples[0]
        inner = frame_backend(manifest, {sample.question: {1}})
        seen = []

        def fn(request):
            (image,) = [p for m in request.messages for p in m.parts
                        if isinstance(p, ImagePart)]
            seen.append((request.seed, request.temperature, image.index,
                         request.messages[0].parts[0].text))
            return inner.complete(request)

        oracle.framewise_eval(sample, FunctionBackend(fn), cfg(seed=7, temperature=0.3))
        assert seen == [(derive_seed(7, sample.sample_id, f"frame{i}", 0), 0.3, i,
                         ANSWER_TEMPLATE) for i in range(3)]

    @pytest.mark.parametrize("reply", [
        "no tags at all",
        "<reasoning>r</reasoning>\n<action>select key frame: [0]</action>",
    ], ids=["malformed", "selection"])
    def test_rejected_reply_costs_one_call(self, reply, sample_factory):
        backend = FunctionBackend(lambda request: reply)
        result = oracle.framewise_eval(sample_factory(n_frames=1), backend,
                                       cfg(max_attempts=3))
        assert backend.calls == 1
        assert result["vector"] == [False] and result["failed_frames"] == []

    @pytest.mark.parametrize("transient, calls, correct, failed", [
        (1, 2, [True], []),
        (3, 3, [False], [0]),
    ], ids=["429_then_answer", "every_try_fails"])
    def test_transient_errors_get_every_transport_try(self, transient, calls, correct,
                                                      failed, sample_factory):
        sample = sample_factory(n_frames=1)
        errors = iter([BackendUnavailable("429", retry_after=0.0)] * transient)

        def fn(request):
            error = next(errors, None)
            if error is not None:
                raise error
            return f"<reasoning>r</reasoning>\n<action>answer: {sample.gold_answers[0]}</action>"

        backend = FunctionBackend(fn)
        result = oracle.framewise_eval(sample, backend, cfg(max_attempts=3))
        assert backend.calls == calls
        assert result["vector"] == correct and result["failed_frames"] == failed


class TestPseudoKeyframes:
    def test_correct_indices(self):
        assert oracle.pseudo_keyframes(record(False, True, False, True)) == frozenset({1, 3})

    def test_single(self):
        assert oracle.pseudo_keyframes(record(True)) == frozenset({0})

    def test_set_u_and_error_records_have_none(self):
        assert oracle.pseudo_keyframes(record(False, False, failed=[1])) == frozenset()
        assert oracle.pseudo_keyframes({"sample_id": "s", "error": "down"}) == frozenset()

    def test_nonempty_iff_any_correct(self):
        for vector in ((False,), (True,), (False, True), (False, False, False)):
            r = record(*vector)
            assert bool(oracle.pseudo_keyframes(r)) == r["any_correct"]


class TestUpperBound:
    def test_oracle_accuracy_and_partition(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=4, n_frames=3)
        solvable = {s.question: {1} for s in manifest.samples[:3]}
        backend = frame_backend(manifest, solvable)
        report = upper_bound(manifest, backend, cfg(), tmp_path / "framewise.jsonl")
        assert report.oracle_accuracy == pytest.approx(75.0)
        assert len(report.partition.set_s) == 3
        assert len(report.partition.set_s) + len(report.partition.set_u) == 4
        assert set(report.partition.set_s).isdisjoint(report.partition.set_u)

    def test_positive_gap_when_video_fails(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=2, n_frames=4)
        backend = frame_backend(manifest, {s.question: {2} for s in manifest.samples})
        report = upper_bound(manifest, backend, cfg(), tmp_path / "framewise.jsonl")
        assert report.oracle_accuracy - 0.0 == pytest.approx(100.0)

    def test_zero_gap_when_identical(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=2, n_frames=2)
        backend = frame_backend(manifest, {s.question: {0} for s in manifest.samples})
        report = upper_bound(manifest, backend, cfg(), tmp_path / "framewise.jsonl")
        assert report.oracle_accuracy - 100.0 == pytest.approx(0.0)

    def test_oracle_dominates_fixed_frame(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=3, n_frames=4)
        correct = {manifest.samples[0].question: {0},
                   manifest.samples[1].question: {3},
                   manifest.samples[2].question: set()}
        backend = frame_backend(manifest, correct)
        records = frame_records(manifest, backend, cfg(), tmp_path / "framewise.jsonl")
        report = oracle.oracle_report(manifest, records)
        n = len(manifest.samples)
        for k in range(4):
            fixed_acc = 100.0 * sum(r["vector"][k] for r in records) / n
            assert report.oracle_accuracy >= fixed_acc


    def test_resume_queries_only_unlogged_samples(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=6, n_frames=3)
        solvable = {s.question: {1} for s in manifest.samples[::2]}
        fresh_records = frame_records(manifest, frame_backend(manifest, solvable),
                                      cfg(parallelism=4), tmp_path / "fresh.jsonl")
        fresh = oracle.oracle_report(manifest, fresh_records)

        log = tmp_path / "framewise.jsonl"
        head = replace(manifest, samples=manifest.samples[:4])
        upper_bound(head, frame_backend(manifest, solvable), cfg(), log)
        backend = frame_backend(manifest, solvable)
        resumed = upper_bound(manifest, backend, cfg(parallelism=4), log)
        assert backend.calls == 2 * 3  # two unlogged samples, three frames each
        assert resumed.partition == fresh.partition
        assert resumed.oracle_accuracy == fresh.oracle_accuracy
        logged = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        assert [r["sample_id"] for r in logged] == [s.sample_id for s in manifest.samples]
        assert [r["vector"] for r in logged] == [r["vector"] for r in fresh_records]

    def test_resume_keeps_failed_frames(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=2, n_frames=3)
        inner = frame_backend(manifest, {s.question: {0} for s in manifest.samples})
        down = (manifest.samples[1].question, 2)

        def fn(request):
            (image,) = [p for m in request.messages for p in m.parts
                        if isinstance(p, ImagePart)]
            if (request_question(request), image.index) == down:
                raise BackendUnavailable("down")
            return inner.complete(request)

        log = tmp_path / "framewise.jsonl"
        fresh = frame_records(manifest, FunctionBackend(fn), cfg(), log)
        backend = FunctionBackend(fn)
        resumed = frame_records(manifest, backend, cfg(), log)
        assert backend.calls == 0
        assert [r["failed_frames"] for r in fresh] == [[], [2]]
        assert resumed == fresh
        report = oracle.oracle_report(manifest, resumed)
        assert (report.failed_frames, report.failed_samples) == (1, 1)

    def test_log_without_failed_frames_reads_as_none(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=2, n_frames=2)
        log = tmp_path / "framewise.jsonl"
        log.write_text(json.dumps({"sample_id": "q000", "vector": [False, True],
                                   "any_correct": True}) + "\n", encoding="utf-8")
        backend = frame_backend(manifest, {})
        records = frame_records(manifest, backend, cfg(), log)
        assert backend.calls == 2  # only q001's two frames
        assert [(r["sample_id"], r["vector"], r.get("failed_frames")) for r in records] \
            == [("q000", [False, True], None), ("q001", [False, False], [])]
        report = oracle.oracle_report(manifest, records)
        assert (report.failed_frames, report.failed_samples) == (0, 0)
        assert report.partition == oracle.Partition(set_s=("q000",), set_u=("q001",))

    @pytest.mark.parametrize("failed", [5, None, "0", [2], [-1], [True], [0.0], ["1"]])
    def test_log_with_bad_failed_frames_is_malformed(self, manifest_factory, tmp_path, failed):
        manifest = manifest_factory(n_samples=2, n_frames=2)
        log = tmp_path / "framewise.jsonl"
        log.write_text("".join(json.dumps({"sample_id": sid, "vector": [False, True],
                                           "any_correct": True, "failed_frames": ff}) + "\n"
                               for sid, ff in (("q000", [0, 1]), ("q001", failed))),
                       encoding="utf-8")
        backend = frame_backend(manifest, {})
        with pytest.raises(MalformedRecord, match="line 2.*'failed_frames'"):
            upper_bound(manifest, backend, cfg(), log)
        assert backend.calls == 0

    def test_logged_error_record_reads_as_every_frame_failed(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=2, n_frames=3)
        log = tmp_path / "framewise.jsonl"
        log.write_text(json.dumps({"sample_id": "q000", "error": "down"}) + "\n",
                       encoding="utf-8")
        backend = frame_backend(manifest, {manifest.samples[1].question: {1}})
        records = frame_records(manifest, backend, cfg(), log)
        assert backend.calls == 3  # only q001's frames
        assert records[0] == {"sample_id": "q000", "error": "down"}
        assert [oracle.pseudo_keyframes(r) for r in records] == [frozenset(), frozenset({1})]
        report = oracle.oracle_report(manifest, records)
        assert (report.failed_frames, report.failed_samples) == (3, 1)
        assert report.partition == oracle.Partition(set_s=("q001",), set_u=("q000",))


class TestStratified:
    def test_rows_and_hit_rate(self):
        scores = [SampleScore("a", 1, 1.0, hit=True), SampleScore("b", 0, 0.0, hit=False),
                  SampleScore("d", 0, 0.0), SampleScore("c", 1, 1.0)]
        partition = oracle.Partition(set_s=("a", "b", "d"), set_u=("c",))
        reports = oracle.stratified_report(scores, partition)
        assert reports["Set_s"].n == 3
        assert reports["Set_s"].mean_accuracy == pytest.approx(100 / 3)
        assert reports["Set_s"].hit_rate == pytest.approx(50.0)  # over a and b only
        assert reports["Set_u"].mean_accuracy == pytest.approx(100.0)
        assert reports["Set_u"].hit_rate is None

    def test_empty_subset_row(self):
        reports = oracle.stratified_report([SampleScore("a", 1, 1.0)],
                                           oracle.Partition(set_s=("a",), set_u=("z",)))
        assert reports["Set_u"] is None
        table = subset_table({"sys": reports}).splitlines()
        assert table[-1].split() == ["sys", "Set_u", "0", "-", "-"]


class TestPartitionIo:
    def test_round_trip(self, tmp_path):
        part = oracle.Partition(set_s=("a", "b"), set_u=("c",))
        oracle.write_partition(part, tmp_path)
        assert oracle.read_partition(tmp_path) == part
        assert (tmp_path / "set_s.ids").exists()
        assert (tmp_path / "set_u.ids").exists()

    def test_round_trip_keeps_spaces_in_ids(self, tmp_path):
        part = oracle.Partition(set_s=("video 1 q2", "a"), set_u=(" c",))
        oracle.write_partition(part, tmp_path)
        assert oracle.read_partition(tmp_path) == part
