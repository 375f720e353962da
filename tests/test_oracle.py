import json
from dataclasses import replace

import pytest

from conftest import request_question, request_stage
from vtagent import oracle
from vtagent.backends import FunctionBackend, ImagePart
from vtagent.data_model import DatasetManifest
from vtagent.engine import EngineConfig
from vtagent.errors import BackendUnavailable, NotFrameSolvable
from vtagent.grammar import KeyframeSet
from vtagent.metrics import SampleScore, hit


def cfg(**kwargs):
    defaults = dict(backoff_base_s=0.0, max_attempts=1, seed=0)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


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

    return FunctionBackend(fn, backend_id="framewise")


class TestFramewiseEval:
    def test_vector_and_any(self, manifest_factory):
        manifest = manifest_factory(n_samples=1, n_frames=4)
        sample = manifest.samples[0]
        backend = frame_backend(manifest, {sample.question: {2}})
        result = oracle.framewise_eval(sample, backend, cfg())
        assert result.per_frame_correct == (False, False, True, False)
        assert result.any_correct

    def test_all_wrong(self, manifest_factory):
        manifest = manifest_factory(n_samples=1, n_frames=3)
        sample = manifest.samples[0]
        result = oracle.framewise_eval(sample, frame_backend(manifest, {}), cfg())
        assert not result.any_correct

    def test_oracle_backend_all_true(self, manifest_factory):
        manifest = manifest_factory(n_samples=1, n_frames=3)
        sample = manifest.samples[0]
        backend = frame_backend(manifest, {sample.question: {0, 1, 2}})
        result = oracle.framewise_eval(sample, backend, cfg())
        assert result.per_frame_correct == (True, True, True)


class TestPseudoKeyframes:
    def test_correct_indices(self):
        r = oracle.FramewiseResult("s", (False, True, False, True))
        assert oracle.pseudo_keyframes(r) == frozenset({1, 3})

    def test_single(self):
        assert oracle.pseudo_keyframes(oracle.FramewiseResult("s", (True,))) == frozenset({0})

    def test_unsolvable_raises(self):
        with pytest.raises(NotFrameSolvable):
            oracle.pseudo_keyframes(oracle.FramewiseResult("s", (False, False)))

    def test_nonempty_iff_any_correct(self):
        r = oracle.FramewiseResult("s", (False, True))
        assert r.any_correct and oracle.pseudo_keyframes(r)


class TestUpperBound:
    def test_oracle_accuracy_and_partition(self, manifest_factory):
        manifest = manifest_factory(n_samples=4, n_frames=3)
        solvable = {s.question: {1} for s in manifest.samples[:3]}
        backend = frame_backend(manifest, solvable)
        report = oracle.oracle_upper_bound(manifest, backend, cfg())
        assert report.oracle_accuracy == pytest.approx(75.0)
        assert len(report.partition.set_s) == 3
        assert len(report.partition.set_s) + len(report.partition.set_u) == 4
        assert set(report.partition.set_s).isdisjoint(report.partition.set_u)

    def test_positive_gap_when_video_fails(self, manifest_factory):
        manifest = manifest_factory(n_samples=2, n_frames=4)
        backend = frame_backend(manifest, {s.question: {2} for s in manifest.samples})
        report = oracle.oracle_upper_bound(manifest, backend, cfg(), video_accuracy=0.0)
        assert report.gap == pytest.approx(100.0)

    def test_zero_gap_when_identical(self, manifest_factory):
        manifest = manifest_factory(n_samples=2, n_frames=2)
        backend = frame_backend(manifest, {s.question: {0} for s in manifest.samples})
        report = oracle.oracle_upper_bound(manifest, backend, cfg(), video_accuracy=100.0)
        assert report.gap == pytest.approx(0.0)

    def test_oracle_dominates_fixed_frame(self, manifest_factory):
        manifest = manifest_factory(n_samples=3, n_frames=4)
        correct = {manifest.samples[0].question: {0},
                   manifest.samples[1].question: {3},
                   manifest.samples[2].question: set()}
        backend = frame_backend(manifest, correct)
        report = oracle.oracle_upper_bound(manifest, backend, cfg())
        n = len(manifest.samples)
        for k in range(4):
            fixed_acc = 100.0 * sum(r.per_frame_correct[k] for r in report.results) / n
            assert report.oracle_accuracy >= fixed_acc


    def test_resume_queries_only_unlogged_samples(self, manifest_factory, tmp_path):
        manifest = manifest_factory(n_samples=6, n_frames=3)
        solvable = {s.question: {1} for s in manifest.samples[::2]}
        fresh = oracle.oracle_upper_bound(manifest, frame_backend(manifest, solvable),
                                          cfg(parallelism=4))

        log = tmp_path / "framewise.jsonl"
        head = replace(manifest, samples=manifest.samples[:4])
        oracle.oracle_upper_bound(head, frame_backend(manifest, solvable), cfg(), log_path=log)
        backend = frame_backend(manifest, solvable)
        resumed = oracle.oracle_upper_bound(manifest, backend, cfg(parallelism=4),
                                            log_path=log)
        assert backend.calls == 2 * 3  # two unlogged samples, three frames each
        assert resumed.partition == fresh.partition
        assert resumed.oracle_accuracy == fresh.oracle_accuracy
        logged = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        assert [r["sample_id"] for r in logged] == [s.sample_id for s in manifest.samples]
        assert [tuple(r["vector"]) for r in logged] == \
            [r.per_frame_correct for r in fresh.results]

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
        fresh = oracle.oracle_upper_bound(manifest, FunctionBackend(fn), cfg(), log_path=log)
        backend = FunctionBackend(fn)
        resumed = oracle.oracle_upper_bound(manifest, backend, cfg(), log_path=log)
        assert backend.calls == 0
        assert [r.failed_frames for r in fresh.results] == [(), (2,)]
        assert resumed.results == fresh.results


class TestStratified:
    def test_rows_and_hit_rate(self):
        scores = [SampleScore("a", 1, 1.0), SampleScore("b", 0, 0.0),
                  SampleScore("c", 1, 1.0)]
        partition = oracle.Partition(set_s=("a", "b"), set_u=("c",))
        rows = oracle.stratified_report(
            scores, partition,
            selections={"a": [3], "b": [0]},
            pseudo={"a": frozenset({3}), "b": frozenset({1})})
        by_name = {r.subset: r for r in rows}
        assert by_name["Set_s"].n == 2
        assert by_name["Set_s"].accuracy == pytest.approx(50.0)
        assert by_name["Set_s"].hit_rate == pytest.approx(50.0)
        assert by_name["Set_u"].accuracy == pytest.approx(100.0)

    def test_empty_subset_row(self):
        rows = oracle.stratified_report([SampleScore("a", 1, 1.0)],
                                        oracle.Partition(set_s=("a",), set_u=()))
        by_name = {r.subset: r for r in rows}
        assert by_name["Set_u"].n == 0 and by_name["Set_u"].accuracy is None

    def test_hit_feeds_rate(self):
        assert hit(KeyframeSet(ids=(2,)), {2}) is True


class TestPartitionIo:
    def test_round_trip(self, tmp_path):
        part = oracle.Partition(set_s=("a", "b"), set_u=("c",))
        oracle.write_partition(part, tmp_path)
        assert oracle.read_partition(tmp_path) == part
        assert (tmp_path / "set_s.ids").exists()
        assert (tmp_path / "set_u.ids").exists()
