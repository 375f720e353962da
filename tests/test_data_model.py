import json
import os
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import write_manifest_file

from vtagent import data_model
from vtagent.data_model import (DatasetManifest, SamplingPolicy, dedupe_samples,
                                load_manifest, sample_frames, sample_manifest,
                                uniform_indices, write_manifest)
from vtagent.errors import DuplicateSampleId, MalformedRecord, MissingFrameFile


def shared_video_manifest(sample_factory, n_samples=3, n_frames=6) -> DatasetManifest:
    """Several questions about one video, with timestamps and keyframes, each
    sample repeating the video's frame list as a manifest does."""
    video = sample_factory(sample_id="v", video_id="v1", n_frames=n_frames)
    frames = tuple(replace(f, timestamp_s=0.5 * f.index) for f in video.frames)
    return DatasetManifest(samples=tuple(
        replace(video, sample_id=f"q{i}", question=f"question {i}?",
                gold_answers=(f"answer {i}",), frames=frames,
                pseudo_keyframes=frozenset({i, i + 2}))
        for i in range(n_samples)), source_uri="memory")


def test_load_happy_path(manifest_factory, sample_factory, tmp_path):
    for manifest in (manifest_factory(n_samples=3), shared_video_manifest(sample_factory)):
        path = tmp_path / "m.jsonl"
        write_manifest(manifest, path)
        loaded = load_manifest(path)
        assert len(loaded.samples) == 3
        assert loaded.samples == manifest.samples  # round-trip
        write_manifest(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_each_distinct_frame_path_checked_once(sample_factory, tmp_path, monkeypatch):
    manifest = shared_video_manifest(sample_factory, n_samples=4)
    path = tmp_path / "m.jsonl"
    write_manifest(manifest, path)
    checked = Counter()
    exists = os.path.exists

    def counting_exists(p):
        checked[p] += 1
        return exists(p)

    monkeypatch.setattr(data_model.os.path, "exists", counting_exists)
    load_manifest(path)
    assert checked == Counter(f.source_path for f in manifest.samples[0].frames)


def test_shared_frames_are_one_ref_and_stay_per_sample(sample_factory, tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifest(shared_video_manifest(sample_factory, n_samples=2), path)
    a, b = load_manifest(path).samples
    assert a.frames is b.frames  # an equal frame list gives the previous record's tuple
    sampled = sample_frames(a, SamplingPolicy.uniform(2))
    assert [(f.index, f.timestamp_s) for f in sampled.frames] == [(0, 0.0), (1, 2.5)]
    assert [(f.index, f.timestamp_s) for f in b.frames] == [(i, 0.5 * i) for i in range(6)]


def two_frame_records(sample_factory, tmp_path) -> tuple[Path, list[dict]]:
    path = write_manifest_file(DatasetManifest(samples=tuple(
        sample_factory(sample_id=f"q{i}", n_frames=2) for i in range(2)), source_uri="memory"),
        tmp_path / "m.jsonl")
    return path, [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("entries", [
    [{"index": "zero"}, {}], [{"index": None}, {}], [{"index": [0]}, {}],
    [{}, {"t": "abc"}], [{"index": 0.9}, {"index": 1.2}], [{}, {"path": 5}]])
def test_malformed_frame_entry_names_its_line(sample_factory, tmp_path, entries):
    path, (first, second) = two_frame_records(sample_factory, tmp_path)
    for frame, changes in zip(second["frames"], entries):
        frame.update(changes)
    path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    with pytest.raises(MalformedRecord) as exc:
        load_manifest(path)
    assert exc.value.line_no == 2


def test_index_and_t_taken_when_int_and_float_convert_them_exactly(sample_factory, tmp_path):
    path, (first, third) = two_frame_records(sample_factory, tmp_path)
    # the first record's list again, its values equal but of another type
    second = dict(first, sample_id="q2", frames=[dict(f, index=float(f["index"]))
                                                   for f in first["frames"]])
    third["frames"][0].update(index=0.0, t="0.5")
    third["frames"][1].update(index="1", t=2)
    path.write_text("".join(json.dumps(r) + "\n" for r in (first, second, third)))
    a, b, c = load_manifest(path).samples
    assert b.frames is a.frames
    assert [(f.index, f.timestamp_s) for f in c.frames] == [(0, 0.5), (1, 2.0)]


def test_failed_manifest_write_keeps_the_old_file_and_removes_its_temporary_file(
        manifest_factory, tmp_path):
    path = tmp_path / "out" / "m.jsonl"
    path.parent.mkdir()
    manifest = manifest_factory(n_samples=2)
    write_manifest(manifest, path)
    before = path.read_bytes()
    bad = replace(manifest.samples[1], question=object())  # a question json cannot write
    with pytest.raises(TypeError):
        write_manifest(replace(manifest, samples=(manifest.samples[0], bad)), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == ["m.jsonl"]


def test_duplicate_sample_id(manifest_factory, tmp_path):
    manifest = manifest_factory(n_samples=2)
    path = tmp_path / "m.jsonl"
    write_manifest(manifest, path)
    lines = path.read_text().splitlines()
    dup = json.loads(lines[1])
    dup["sample_id"] = "q001"
    first = json.loads(lines[0])
    first["sample_id"] = "q001"
    path.write_text(json.dumps(first) + "\n" + json.dumps(dup) + "\n")
    with pytest.raises(DuplicateSampleId) as exc:
        load_manifest(path)
    assert exc.value.sample_id == "q001"


def test_empty_frames_rejected(manifest_factory, tmp_path):
    manifest = manifest_factory(n_samples=1)
    path = tmp_path / "m.jsonl"
    write_manifest(manifest, path)
    obj = json.loads(path.read_text())
    obj["frames"] = []
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(MalformedRecord) as exc:
        load_manifest(path)
    assert "empty frames" in exc.value.reason


def test_missing_frame_file(manifest_factory, tmp_path):
    manifest = manifest_factory(n_samples=2)
    path = tmp_path / "m.jsonl"
    write_manifest(manifest, path)
    first, second = (json.loads(line) for line in path.read_text().splitlines())
    nope, late = str(tmp_path / "z_nope.png"), str(tmp_path / "a_nope.png")
    (tmp_path / "broken.png").symlink_to(tmp_path / "gone.png")
    broken = str(tmp_path / "broken.png")

    def write(paths_by_record):
        records = []
        for obj, paths in zip((first, second), paths_by_record):
            obj = json.loads(json.dumps(obj))
            for fr, p in zip(obj["frames"], paths):
                fr["path"] = p
            records.append(json.dumps(obj) + "\n")
        path.write_text("".join(records))

    # a plain missing file; the first missing path in file order, repeated,
    # before one that sorts first; a broken symlink
    for paths_by_record, missing in (([[nope]], nope),
                                     ([[first["frames"][0]["path"], nope, late],
                                       [late, nope]], nope),
                                     ([[broken]], broken)):
        write(paths_by_record)
        with pytest.raises(MissingFrameFile) as exc:
            load_manifest(path)
        assert exc.value.path == missing


def test_uniform_indices_floor_spaced():
    assert uniform_indices(10, 4) == [0, 3, 6, 9]
    assert uniform_indices(5, 8) == [0, 1, 2, 3, 4]
    assert uniform_indices(1, 1) == [0]
    assert uniform_indices(7, 2) == [0, 6]  # endpoints included


def test_sample_frames_uniform(sample_factory):
    sample = sample_factory(n_frames=10, keyframes={0, 3, 5})
    out = sample_frames(sample, SamplingPolicy.uniform(4))
    assert [f.index for f in out.frames] == [0, 1, 2, 3]
    # original indices 0,3,6,9 survive; source paths retained
    assert [f.source_path for f in out.frames] == \
        [sample.frames[i].source_path for i in (0, 3, 6, 9)]
    # keyframes 0 and 3 remap to 0 and 1; 5 is dropped
    assert out.pseudo_keyframes == frozenset({0, 1})


def test_sample_frames_n_at_least_count(sample_factory):
    sample = sample_factory(n_frames=5)
    assert sample_frames(sample, SamplingPolicy.uniform(8)) is sample
    one = sample_factory(sample_id="q1", n_frames=1)
    assert sample_frames(one, SamplingPolicy.uniform(1)) is one


def test_sample_frames_idempotent(sample_factory):
    sample = sample_factory(n_frames=10)
    once = sample_frames(sample, SamplingPolicy.uniform(4))
    twice = sample_frames(once, SamplingPolicy.uniform(4))
    assert twice == once


def test_sample_manifest_shares_sampled_frames_per_video_and_policy(sample_factory, tmp_path):
    video = sample_factory(sample_id="v", video_id="v1", n_frames=6, keyframes={0, 3})
    other = sample_factory(sample_id="w", video_id="v2", n_frames=6)
    manifest = DatasetManifest(samples=(
        replace(video, sample_id="q0"), other,
        replace(video, sample_id="q1", pseudo_keyframes=frozenset({5}))), source_uri="memory")
    path = write_manifest_file(manifest, tmp_path / "m.jsonl")
    loads = [load_manifest(path) for _ in range(2)]
    for n in (2, 3):
        policy = SamplingPolicy.uniform(n)
        outs = [sample_manifest(m, policy).samples for m in loads]
        for (a, w, b), loaded in zip(outs, loads):
            # each sample is what sample_frames gives it, keyframes remapped per sample
            assert (a, w, b) == tuple(sample_frames(s, policy) for s in loaded.samples)
            assert a.frames is b.frames and w.frames is not a.frames
        assert outs[0][0].frames is not outs[1][0].frames  # one call shares, not two
    assert sample_manifest(loads[0], SamplingPolicy.uniform(6)).samples == loads[0].samples


def test_dedupe(sample_factory):
    a = sample_factory(sample_id="a", video_id="v1", question="What is it?")
    b = sample_factory(sample_id="b", video_id="v1", question="  what IS it? ")
    c = sample_factory(sample_id="c", video_id="v1", question="something else?")
    out = dedupe_samples([a, b, c])
    assert [s.sample_id for s in out] == ["a", "c"]


def test_dedupe_idempotent_on_unique(manifest_factory):
    samples = list(manifest_factory(n_samples=5).samples)
    once = dedupe_samples(samples)
    assert once == samples
    assert dedupe_samples(once) == once
