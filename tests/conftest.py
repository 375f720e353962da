import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vtagent
from vtagent.backends import FunctionBackend, GenerationRequest, ImagePart, TextPart
from vtagent.data_model import DatasetManifest, FrameRef, Sample

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# smallest valid PNG (1x1, black)
PNG_BYTES = bytes.fromhex(
    "89504e470d0a1a0a0000000d49484452000000010000000108060000001f15c489"
    "0000000d49444154789c626001000000ffff03000006000557bfabd40000000049454e44ae426082"
)


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    """Transport retries back off 0 s, so a test never waits on a real
    sleep; test backends that sleep to overlap calls still do."""
    monkeypatch.setattr("vtagent.engine.BACKOFF_BASE_S", 0.0)


@pytest.fixture
def frame_factory(tmp_path):
    def make(video_id: str, count: int) -> list[FrameRef]:
        vdir = tmp_path / "frames" / video_id
        vdir.mkdir(parents=True, exist_ok=True)
        refs = []
        for i in range(count):
            p = vdir / f"{i:04d}.png"
            p.write_bytes(PNG_BYTES)
            refs.append(FrameRef(index=i, source_path=str(p)))
        return refs
    return make


@pytest.fixture
def sample_factory(frame_factory):
    def make(sample_id="q000", video_id=None, n_frames=4, question="what does the sign say?",
             answers=("stop",), keyframes=None, split="toy-val"):
        video_id = video_id or f"v_{sample_id}"
        return Sample(
            sample_id=sample_id,
            video_id=video_id,
            frames=tuple(frame_factory(video_id, n_frames)),
            question=question,
            gold_answers=tuple(answers),
            pseudo_keyframes=frozenset(keyframes) if keyframes is not None else None,
            split_tag=split,
        )
    return make


@pytest.fixture
def manifest_factory(sample_factory, tmp_path):
    def make(n_samples=3, n_frames=4, **kwargs):
        samples = tuple(
            sample_factory(sample_id=f"q{i:03d}", question=f"question {i}?",
                           answers=(f"answer {i}",), n_frames=n_frames, **kwargs)
            for i in range(n_samples)
        )
        return DatasetManifest(samples=samples)
    return make


def request_question(request: GenerationRequest) -> str:
    for part in request.messages[-1].parts:
        if isinstance(part, TextPart) and part.text.startswith("Question: "):
            return part.text[len("Question: "):]
    raise AssertionError("no question part in request")


def request_stage(request: GenerationRequest) -> str:
    """anchor | answer | frame, inferred from the prompt template text."""
    first = request.messages[-1].parts[0]
    assert isinstance(first, TextPart)
    if first.text.startswith("These are the keyframes"):
        images = [p for p in request.messages[-1].parts if isinstance(p, ImagePart)]
        return "frame" if len(images) == 1 and len(request.messages) == 1 else "answer"
    return "anchor" if "select key frame" in first.text else "direct"


def request_image_count(request: GenerationRequest) -> int:
    return sum(1 for m in request.messages for p in m.parts if isinstance(p, ImagePart))


@pytest.fixture
def oracle_backend_factory():
    """Backend that always emits a valid selection then the gold answer."""
    def make(manifest: DatasetManifest, select_ids=(0,)):
        golds = {s.question: s.gold_answers[0] for s in manifest.samples}

        def fn(request: GenerationRequest) -> str:
            stage = request_stage(request)
            if stage == "anchor":
                ids = ", ".join(str(i) for i in select_ids)
                return (f"<reasoning>frames {ids} look relevant</reasoning>\n"
                        f"<action>select key frame: [{ids}]</action>")
            gold = golds[request_question(request)]
            return f"<reasoning>the text is visible</reasoning>\n<action>answer: {gold}</action>"

        return FunctionBackend(fn)
    return make


def dp_lev(a: str, b: str) -> int:
    """Levenshtein oracle for long strings: the full Wagner-Fischer table,
    no trimming, no bit vectors."""
    table = [[i + j if i == 0 or j == 0 else 0 for j in range(len(b) + 1)]
             for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return table[-1][-1]


def write_manifest_file(manifest: DatasetManifest, path: Path) -> Path:
    from vtagent.data_model import write_manifest
    write_manifest(manifest, path)
    return path


def src_env() -> dict[str, str]:
    """The environment for a child Python that imports the vtagent this one
    imports: its directory ahead of any PYTHONPATH already set."""
    src = str(Path(vtagent.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_script(name: str, *args: str) -> str:
    """stdout of scripts/<name> run with args in a child Python, which must
    exit 0."""
    child = subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=src_env(),
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return child.stdout


@pytest.fixture(scope="session")
def synthetic_manifest(tmp_path_factory) -> Path:
    """scripts/make_synthetic_manifest.py's manifest of 3 samples x 4 frames:
    q0000 and q0001 ask about video v0000, q0002 about v0001, and the gold
    answer of sample i is `text i`. Read it only."""
    out = tmp_path_factory.mktemp("syn")
    run_script("make_synthetic_manifest.py", "--out-dir", str(out), "--samples", "3",
               "--frames", "4")
    return out / "manifest.jsonl"
