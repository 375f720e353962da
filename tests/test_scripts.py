"""Both scripts run in a child Python on small arguments: each calls library
APIs that a refactor can change under it."""

from conftest import run_script
from vtagent.data_model import load_manifest


def test_both_scripts_run(synthetic_manifest):
    # the fixture is make_synthetic_manifest.py's run at --samples 3 --frames 4
    samples = load_manifest(synthetic_manifest).samples
    assert [(s.sample_id, s.video_id, s.gold_answers) for s in samples] == [
        ("q0000", "v0000", ("text 0",)), ("q0001", "v0000", ("text 1",)),
        ("q0002", "v0001", ("text 2",))]
    assert [len(s.frames) for s in samples] == [4, 4, 4]
    assert samples[0].frames == samples[1].frames != samples[2].frames
    rows = run_script("reward_ablation.py", "--seeds", "1", "--steps", "20").splitlines()
    assert [row.split()[0] for row in rows] == ["seed", "0", "mean"]
    assert rows[1].split()[1:] == rows[2].split()[1:]  # one seed: its rates are the means
