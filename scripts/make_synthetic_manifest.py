"""Generate a synthetic toy manifest with placeholder frame images.

Useful for smoke-testing the eval, oracle, and curation commands without
real video data. As in real data, each video is asked two questions:
samples 2k and 2k+1 share video k's n placeholder frames. Every sample has
a unique question/answer pair.

    python3 scripts/make_synthetic_manifest.py --out-dir /tmp/toy --samples 20
"""

import argparse
from pathlib import Path

from vtagent.data_model import DatasetManifest, FrameRef, Sample, write_manifest

# smallest valid PNG (1x1, black)
PNG_BYTES = bytes.fromhex(
    "89504e470d0a1a0a0000000d49484452000000010000000108060000001f15c489"
    "0000000d49444154789c626001000000ffff03000006000557bfabd40000000049454e44ae426082"
)

QUESTIONS_PER_VIDEO = 2


def make_frames(root: Path, video_id: str, count: int) -> tuple[FrameRef, ...]:
    vdir = root / "frames" / video_id
    vdir.mkdir(parents=True, exist_ok=True)
    refs = []
    for i in range(count):
        p = vdir / f"{i:04d}.png"
        p.write_bytes(PNG_BYTES)
        refs.append(FrameRef(index=i, source_path=str(p)))
    return tuple(refs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--frames", type=int, default=8)
    parser.add_argument("--split", default="toy-val")
    args = parser.parse_args()

    root = Path(args.out_dir)
    root.mkdir(parents=True, exist_ok=True)
    samples = []
    for i in range(args.samples):
        video_id = f"v{i // QUESTIONS_PER_VIDEO:04d}"
        if i % QUESTIONS_PER_VIDEO == 0:
            frames = make_frames(root, video_id, args.frames)
        samples.append(Sample(
            sample_id=f"q{i:04d}",
            video_id=video_id,
            frames=frames,
            question=f"what does sign {i} say?",
            gold_answers=(f"text {i}",),
            split_tag=args.split,
        ))
    manifest = DatasetManifest(samples=tuple(samples))
    out = root / "manifest.jsonl"
    write_manifest(manifest, out)
    print(f"wrote {len(samples)} samples to {out}")


if __name__ == "__main__":
    main()
