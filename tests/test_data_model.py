import json
import os
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from conftest import write_manifest_file
from hypothesis import given, settings
from hypothesis import strategies as st

from vtagent import data_model, jsonl
from vtagent.data_model import (DatasetManifest, FrameRef, Sample, SamplingPolicy,
                                dedupe_samples, load_manifest, sample_frames, sample_manifest,
                                uniform_indices, write_manifest)
from vtagent.errors import DuplicateSampleId, MalformedRecord, MissingFrameFile, VtagentError


def shared_video_manifest(sample_factory, n_samples=3, n_frames=6) -> DatasetManifest:
    """Several questions about one video, with timestamps and keyframes, each
    sample repeating the video's frame list as a manifest does."""
    video = sample_factory(sample_id="v", video_id="v1", n_frames=n_frames)
    frames = tuple(replace(f, timestamp_s=0.5 * f.index) for f in video.frames)
    return DatasetManifest(samples=tuple(
        replace(video, sample_id=f"q{i}", question=f"question {i}?",
                gold_answers=(f"answer {i}",), frames=frames,
                pseudo_keyframes=frozenset({i, i + 2}))
        for i in range(n_samples)))


def test_load_happy_path(manifest_factory, sample_factory, tmp_path):
    for manifest in (manifest_factory(n_samples=3), shared_video_manifest(sample_factory)):
        path = tmp_path / "m.jsonl"
        write_manifest(manifest, path)
        loaded = load_manifest(path)
        assert len(loaded.samples) == 3
        assert loaded.samples == manifest.samples  # round-trip
        write_manifest(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def frame_files(directory: Path, count: int) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / f"{i:04d}.png" for i in range(count)]
    for p in paths:
        p.write_bytes(b"png")
    return [str(p) for p in paths]


def paths_manifest(path: Path, paths_by_record: list[list[str]]) -> Path:
    """A manifest with one record per list of frame paths."""
    path.write_text("".join(
        json.dumps({"sample_id": f"q{i}", "video_id": "v", "question": "q?",
                    "answers": ["a"],
                    "frames": [{"index": j, "path": p} for j, p in enumerate(paths)]}) + "\n"
        for i, paths in enumerate(paths_by_record)), encoding="utf-8")
    return path


def test_each_distinct_frame_path_checked_once(tmp_path, monkeypatch):
    """Each directory is scanned at most once per load, and each path is
    stat'ed at most once, only when the scan cannot vouch for it."""
    video = frame_files(tmp_path / "v", 20)
    link = str(tmp_path / "v" / "link.png")
    os.symlink(video[0], link)
    few = frame_files(tmp_path / "few", 2)
    path = paths_manifest(tmp_path / "m.jsonl", [video + [link]] * 3 + [few, video[:3]])
    scans, stats = Counter(), Counter()
    scandir, exists = os.scandir, os.path.exists
    monkeypatch.setattr(data_model.os, "scandir", lambda p: scans.update([p]) or scandir(p))
    monkeypatch.setattr(data_model.os.path, "exists", lambda p: stats.update([p]) or exists(p))
    load_manifest(path)
    # a directory the load names two files of is not scanned
    assert scans == Counter({str(tmp_path / "v") + "/": 1})
    assert set(stats.values()) == {1}
    # the scan vouches for the plain files once one stat shows the directory
    # allows a search; a symlink, and the files of the unscanned directory,
    # are stat'ed
    assert len(set(stats) & set(video)) == 1
    assert set(stats) - set(video) == {link, *few}


def _counting_scandir(monkeypatch) -> Counter:
    """Entries read from each directory os.scandir opens."""
    read = Counter()
    scandir = os.scandir

    class Counting:
        def __init__(self, path):
            self.path, self.it = path, scandir(path)

        def __enter__(self):
            return (read.update([self.path]) or entry for entry in self.it)

        def __exit__(self, *exc):
            self.it.close()

    monkeypatch.setattr(data_model.os, "scandir", Counting)
    return read


def test_a_scan_reads_at_most_four_entries_per_name(tmp_path, monkeypatch):
    files = frame_files(tmp_path / "v", 150)
    wanted = files[::7][:20]  # 20 names in a small directory of 150
    read = _counting_scandir(monkeypatch)
    load_manifest(paths_manifest(tmp_path / "m.jsonl", [wanted]))
    assert 0 < read[str(tmp_path / "v") + "/"] <= 4 * len(wanted)


def test_a_directory_the_load_names_little_of_is_not_scanned(tmp_path, monkeypatch):
    files = frame_files(tmp_path / "v", 1000)
    read = _counting_scandir(monkeypatch)
    load_manifest(paths_manifest(tmp_path / "m.jsonl", [files[::50]]))
    assert read == Counter()


def _frame_cases(root: Path) -> dict[str, list[list[str]]]:
    """Manifests' frame paths (a list per record). Every directory holds or
    is named with at least 20 files, so each is a candidate for a scan."""
    v = frame_files(root / "v", 20)
    names = [Path(p).name for p in v]
    d = str(root / "v")
    links = root / "links"
    links.mkdir()
    for name in names:
        (links / name).symlink_to(root / "v" / name)
    (root / "v" / "broken.png").symlink_to(root / "gone.png")
    return {
        "plain": [v, v],
        "valid-symlinks": [[str(links / n) for n in names]],
        "broken-symlink-in-a-scanned-directory": [v + [d + "/broken.png"]],
        "dot-parts": [[f"{d}/./{n}" for n in names]],
        "dotdot-parts": [[f"{d}/../v/{n}" for n in names]],
        "doubled-slashes": [[f"{d}//{n}" for n in names], [f"{d}///{n}" for n in names]],
        "name-is-dot-or-dotdot": [v + [d + "/.", d + "/..", d + "/"]],
        "parent-is-a-file": [v, [f"{v[0]}/x{i}.png" for i in range(20)]],
        "missing-directory": [[f"{root}/nope/x{i}.png" for i in range(20)]],
        "one-missing-in-a-scanned-directory": [v[:4] + [d + "/9999.png"] + v[4:]],
        "first-missing-in-file-order": [v[:5] + [d + "/b.png"], [d + "/a.png"] + v],
        "case-differs": [v[:19] + [d + "/0019.PNG"]],
        "nul-in-directory": [[f"{d}\x00/x{i}.png" for i in range(20)]],
        "relative": [names],
        "relative-dot": [[f"./{n}" for n in names], names],
    }


@pytest.mark.parametrize("case", [
    "plain", "valid-symlinks", "broken-symlink-in-a-scanned-directory", "dot-parts",
    "dotdot-parts", "doubled-slashes", "name-is-dot-or-dotdot", "parent-is-a-file",
    "missing-directory", "one-missing-in-a-scanned-directory", "first-missing-in-file-order",
    "case-differs", "nul-in-directory", "relative", "relative-dot"])
def test_frame_check_agrees_with_os_path_exists_in_file_order(case, tmp_path, monkeypatch):
    paths_by_record = _frame_cases(tmp_path)[case]
    monkeypatch.chdir(tmp_path / "v")  # where the relative cases' names live
    path = paths_manifest(tmp_path / "m.jsonl", paths_by_record)
    # what a load did before directories were scanned: os.path.exists per path
    missing = next((p for paths in paths_by_record for p in paths
                    if not os.path.exists(p)), None)
    if missing is None:
        loaded = load_manifest(path)
        assert [[f.source_path for f in s.frames] for s in loaded.samples] == paths_by_record
    else:
        with pytest.raises(MissingFrameFile) as exc:
            load_manifest(path)
        assert exc.value.path == missing


@pytest.mark.parametrize("case", ["missing-then-bad-json", "bad-record-then-missing",
                                  "missing-then-duplicate", "missing-before-bad-entry",
                                  "bad-entry-before-missing"])
def test_missing_frame_named_only_when_it_comes_before_a_bad_record(case, tmp_path):
    v = frame_files(tmp_path / "v", 20)
    gone = str(tmp_path / "v" / "gone.png")
    path = paths_manifest(tmp_path / "m.jsonl", [v, v[:5] + [gone] + v[5:]])
    first, second = (json.loads(line) for line in path.read_text().splitlines())
    if case == "missing-then-bad-json":
        lines = [json.dumps(second), "{"]
    elif case == "bad-record-then-missing":
        lines = [json.dumps(dict(first, answers=[])), json.dumps(second)]
    elif case == "missing-then-duplicate":
        lines = [json.dumps(first), json.dumps(dict(second, sample_id=first["sample_id"]))]
    else:  # the missing frame is entry 5; a malformed entry before or after it
        at = 3 if case == "bad-entry-before-missing" else 7
        second["frames"][at]["index"] = "x"
        lines = [json.dumps(first), json.dumps(second)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises((MissingFrameFile, MalformedRecord)) as exc:
        load_manifest(path)
    if case in ("bad-record-then-missing", "bad-entry-before-missing"):
        assert isinstance(exc.value, MalformedRecord)
        assert exc.value.line_no == (1 if case == "bad-record-then-missing" else 2)
    else:
        assert isinstance(exc.value, MissingFrameFile) and exc.value.path == gone


def test_a_shared_frames_tuple_is_checked_once(sample_factory, tmp_path, monkeypatch):
    path = tmp_path / "m.jsonl"
    write_manifest(shared_video_manifest(sample_factory, n_samples=4), path)
    checked = []
    check = data_model._check_frames

    def counting_check(frames):
        checked.append(type(frames) is not data_model._CheckedFrames)
        return check(frames)

    monkeypatch.setattr(data_model, "_check_frames", counting_check)
    manifest = load_manifest(path)
    sample_manifest(manifest, SamplingPolicy.uniform(3))
    assert sum(checked) == 1  # the first record's tuple; samples and sampling share it


def _counting_decodes(monkeypatch) -> Counter:
    """Counts of the load's frames-value decodes ("alone": the only decodes
    that start inside the line) and whole-line decodes ("whole")."""
    counts: Counter = Counter()
    raw_decode, record = data_model._raw_decode, data_model._record

    def alone(text, start=0):
        counts["alone"] += start > 0
        return raw_decode(text, start)

    def whole(*args):
        counts["whole"] += 1
        return record(*args)

    monkeypatch.setattr(data_model, "_raw_decode", alone)
    monkeypatch.setattr(data_model, "_record", whole)
    return counts


@pytest.mark.parametrize("separators, ascii_only", [
    pytest.param(None, False, id="None"), pytest.param((",", ":\t"), False, id="separators1"),
    pytest.param((", ", ": "), True, id="ensure_ascii")])
def test_questions_about_one_video_share_one_frames_decode(sample_factory, tmp_path,
                                                           monkeypatch, separators, ascii_only):
    videos = [sample_factory(sample_id=f"v{v}", n_frames=5) for v in range(8)]
    manifest = DatasetManifest(samples=tuple(
        replace(video, sample_id=f"{video.sample_id}q{q}", question=f"qu\u00e9 {q}?")
        for video in videos for q in range(8)))
    path = write_manifest_file(manifest, tmp_path / "m.jsonl")
    if separators:  # a tab before each value, or json.dumps' escapes of non-ASCII text
        path.write_text("".join(json.dumps(json.loads(line), separators=separators,
                                           ensure_ascii=ascii_only) + "\n"
                                for line in path.read_text().splitlines()))
    assert ("\\u00e9" in path.read_text()) == ascii_only
    counts = _counting_decodes(monkeypatch)
    loaded = load_manifest(path)
    # the first two lines show the sharing, then one frames list per video
    assert counts == {"whole": 2, "alone": 8}
    assert loaded.samples == manifest.samples
    assert len({id(s.frames) for s in loaded.samples}) == 8
    for v in range(8):  # the 8 questions about one video share one frames tuple
        assert all(s.frames is loaded.samples[8 * v].frames
                   for s in loaded.samples[8 * v:8 * v + 8])


def test_records_with_their_own_frames_decode_each_line_once(sample_factory, tmp_path,
                                                             monkeypatch):
    manifest = DatasetManifest(samples=tuple(
        sample_factory(sample_id=f"q{i}", n_frames=12) for i in range(8)))
    path = write_manifest_file(manifest, tmp_path / "m.jsonl")
    counts = _counting_decodes(monkeypatch)
    assert load_manifest(path).samples == manifest.samples
    assert counts == {"whole": 8}


def test_frames_that_nest_end_the_splitting(sample_factory, tmp_path, monkeypatch):
    videos = [sample_factory(sample_id=f"v{v}", n_frames=12) for v in range(8)]
    manifest = DatasetManifest(samples=tuple(
        replace(video, sample_id=f"{video.sample_id}q{q}", question=f"question {q}?")
        for video in videos for q in range(8)))
    path = write_manifest_file(manifest, tmp_path / "m.jsonl")
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        for frame in record["frames"]:
            frame["box"] = [0, 0, 1, 1]  # a decode of the whole line recurses deeper
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    counts = _counting_decodes(monkeypatch)
    assert load_manifest(path).samples == manifest.samples
    # every line whole; the third line's frames also alone, which ends the splitting
    assert counts == {"whole": 64, "alone": 1}


@pytest.fixture(scope="module")
def frame_dir(tmp_path_factory) -> Path:
    """Frame files for the drawn manifests; a bracket or brace in a path is
    text a frames value may hold."""
    root = tmp_path_factory.mktemp("frames")
    for name in ("a.png", "b.png", "c{d].png", "\u00e9\U0001F600.png"):
        (root / name).write_bytes(b"png")
    return root


def _frames(draw, root: Path) -> list:
    names = draw(st.lists(st.sampled_from(["a.png", "b.png"] * 5 + [
        "c{d].png", "gone.png", "\u00e9\U0001F600.png"]),
                          min_size=1, max_size=4))
    frames = []
    for i, name in enumerate(names):
        frame = {"index": draw(st.sampled_from([i] * 6 + [float(i), str(i), i + 1])),
                 "path": str(root / name)}
        if draw(st.booleans()):
            frame["t"] = draw(st.sampled_from([0.5 * i] * 8 + [1, "x", {"s": 1}, [i]]))
        frames.append(frame)
    return frames


@st.composite
def manifest_lines(draw, root: Path) -> list[str]:
    """Manifest lines over a few videos, consecutive questions often about one
    video, written with several separators; some lines hold a frames text
    that is not their record's frames (a nested or duplicate frames key, a
    "\\u0000" value, a list that extends another, a cut line)."""
    videos = [_frames(draw, root) for _ in range(3)]
    lines, video = [], 0
    # plain questions about video 0 first: from the third, lines share its frames
    warmup = draw(st.integers(0, 4))
    for n in range(warmup + draw(st.integers(0, 8))):
        video = 0 if n < warmup else draw(st.sampled_from([video] * 4 + [0, 1, 2]))
        frames = videos[video]
        question = draw(st.sampled_from(
            ["q?"] * 4 + ['does it say "frames": [1]?', "caf\u00e9", "frames:[", "a\u2028b",
                          "\U0001F600", "back\\slash \\u0000"]))
        obj = {"sample_id": f"q{draw(st.sampled_from([n] * 7 + [0]))}", "video_id": "v",
               "question": question,
               "answers": draw(st.sampled_from([["a"]] * 4 + [[], "a"])), "frames": frames}
        shape = "plain" if n < warmup else draw(st.sampled_from(["plain"] * 3 + [
            "nested-first", "nested-after", "duplicate", "duplicate-placeholder",
            "placeholder", "no-frames", "number", "extends", "not-an-object",
            "cut", "trailing", "blank", "escaped-key", "lone-surrogate",
            "surrogate-in-frames"]))
        if shape == "nested-first":
            obj = {"meta": {"frames": frames}, **obj}
        elif shape == "nested-after":
            obj["meta"] = {"frames": frames}
        elif shape == "no-frames":
            del obj["frames"]
        elif shape == "number":
            obj["frames"] = 12
        elif shape == "extends":
            obj["frames"] = frames + [{"index": len(frames), "path": str(root / "a.png")}]
        sep = draw(st.sampled_from([(", ", ": "), (",", ":"), (", ", ":\t"), (",", ":  ")]))
        ascii_only = draw(st.booleans())
        line = json.dumps(obj, separators=sep, ensure_ascii=ascii_only)
        other = json.dumps(videos[draw(st.integers(0, 2))], separators=sep,
                           ensure_ascii=ascii_only)
        if shape == "duplicate":
            line = line[:-1] + f', "frames": {other}}}'
        elif shape == "duplicate-placeholder":
            line = line[:-1] + ', "frames": "\\u0000"}'
        elif shape == "placeholder":
            line = line.replace('"frames"', '"frames": "\\u0000", "x"', 1)
        elif shape == "escaped-key":  # its value is found first, as a frames text
            line = line.replace('"frames"', f'"a\\"frames": {other}, "frames"', 1)
        elif shape == "lone-surrogate":
            line = line.replace('"video_id"', '"x": "\\ud83d", "video_id"', 1)
        elif shape == "surrogate-in-frames":
            line = line.replace('.png"', '\\udc00.png"', 1)
        elif shape == "not-an-object":
            line = f"[{line}]"
        elif shape == "cut":
            line = line[:draw(st.integers(0, len(line) - 1))]
        elif shape == "trailing":
            line += draw(st.sampled_from([" ", "\t", " x", "}", ',"a":1}']))
        elif shape == "blank":
            line = draw(st.sampled_from(["", "  ", "\t"]))
        lines.append(line)
    return lines


def _whole_line_records(path):
    """_manifest_records(path) as read_records and a plain compare give it."""
    previous = None
    for line_no, obj in jsonl.read_records(path):
        frames = obj.get("frames")
        yield line_no, obj, frames == previous
        previous = frames


def _outcome(load) -> tuple:
    """repr of what load() returns, or the type, message and line of its error."""
    try:
        return ("ok", repr(load()))
    except VtagentError as e:
        return (type(e), str(e), getattr(e, "line_no", None))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_shared_frames_decode_gives_what_a_whole_line_decode_gives(frame_dir, data):
    lines = data.draw(manifest_lines(frame_dir))
    path = frame_dir / "m.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    shared = (_outcome(lambda: list(data_model._manifest_records(path))),
              _outcome(lambda: load_manifest(path)))
    with mock.patch.object(data_model, "_manifest_records", _whole_line_records):
        whole = (_outcome(lambda: list(_whole_line_records(path))),
                 _outcome(lambda: load_manifest(path)))
    assert shared == whole


@pytest.mark.parametrize("frames, answers, reason", [
    ((), (), "empty frames"),
    ([(1, None), (0, None)], (), "empty gold_answers"),
    ([(1, None), (0, None)], ("a",), "0-based and contiguous"),
    ([(0, 2.0), (1, 1.0)], ("a",), "non-decreasing"),
])
def test_sample_checks_its_frames_and_answers_in_order(frames, answers, reason):
    refs = tuple(FrameRef(i, f"/f{i}.png", t) for i, t in frames)
    with pytest.raises(ValueError, match=reason):
        Sample("q", "v", refs, "q?", answers)


def test_a_record_with_out_of_order_frames_names_its_line(sample_factory, tmp_path):
    path, (first, second) = two_frame_records(sample_factory, tmp_path)
    second["frames"][0]["index"], second["frames"][1]["index"] = 1, 0
    path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    with pytest.raises(MalformedRecord) as exc:
        load_manifest(path)
    assert exc.value.line_no == 2 and "contiguous" in exc.value.reason


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
        sample_factory(sample_id=f"q{i}", n_frames=2) for i in range(2))),
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


@pytest.mark.parametrize("bad, reason", [('{"sample_id": "q9",', "invalid JSON in {}: "),
                                         ("[" * 100_000, "invalid JSON in {}: "),
                                         ("[1, 2]", "record in {} is not a JSON object")],
                         ids=["invalid-json", "nested-too-deep", "not-an-object"])
def test_a_line_that_is_no_json_object_names_the_manifest_and_its_line(
        sample_factory, tmp_path, bad, reason):
    path, (first, second) = two_frame_records(sample_factory, tmp_path)
    raw = json.dumps(first) + "\n\n" + bad + "\n" + json.dumps(second) + "\n"
    path.write_text(raw)
    with pytest.raises(MalformedRecord) as exc:
        load_manifest(path)
    assert exc.value.line_no == 3 and exc.value.reason.startswith(reason.format(path))
    assert path.read_text() == raw


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


@pytest.mark.parametrize("keyframes", [[0.9, 1.7], [None], [[0]], ["one"], 3, "01"])
def test_malformed_keyframes_name_their_line(sample_factory, tmp_path, keyframes):
    path, (first, second) = two_frame_records(sample_factory, tmp_path)
    second["keyframes"] = keyframes
    path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    with pytest.raises(MalformedRecord) as exc:
        load_manifest(path)
    assert exc.value.line_no == 2


def test_keyframes_taken_when_int_converts_them_exactly(sample_factory, tmp_path):
    path = write_manifest_file(DatasetManifest(samples=(sample_factory(n_frames=4),)),
                               tmp_path / "m.jsonl")
    record = json.loads(path.read_text())
    path.write_text(json.dumps(dict(record, keyframes=[1, 2.0, "3"])) + "\n")
    (sample,) = load_manifest(path).samples
    assert sample.pseudo_keyframes == frozenset({1, 2, 3})


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
        replace(video, sample_id="q1", pseudo_keyframes=frozenset({5}))))
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
