"""Every cycle's live map and the metrics CSV match the recorded digests.

The digests in ``golden_digests.json`` were recorded by
``record_golden.py``; a change that alters any stored mass bit, layer
step, patch set or CSV row fails here.
"""

import json
from pathlib import Path

import pytest

import record_golden
from record_golden import CYCLES, DRIVES, SEED, drive_digests

GOLDEN = json.loads(Path(__file__).with_name("golden_digests.json").read_text())


def test_golden_file_matches_recorder_settings():
    assert GOLDEN["seed"] == SEED and GOLDEN["cycles"] == CYCLES
    assert set(GOLDEN["drives"]) == set(DRIVES)


@pytest.mark.parametrize("name", sorted(DRIVES))
def test_live_maps_match_golden_digests(name):
    want = GOLDEN["drives"][name]
    got = drive_digests(name)
    assert len(got["maps"]) == len(want["maps"]) == CYCLES
    changed = [i for i, (g, w) in enumerate(zip(got["maps"], want["maps"])) if g != w]
    assert not changed, f"{name}: live map differs at cycles {changed}"
    assert got["csv_sha256"] == want["csv_sha256"]


def test_recorder_adds_missing_drives_and_keeps_the_others(tmp_path, monkeypatch):
    recorded = []

    def fake_digests(name):
        recorded.append(name)
        return {"maps": [], "csv_sha256": name}

    monkeypatch.setattr(record_golden, "drive_digests", fake_digests)
    path = tmp_path / "golden.json"
    text = Path(record_golden.__file__).with_name("golden_digests.json").read_text()
    path.write_text(text)
    record_golden.main(str(path))
    assert recorded == [] and path.read_text() == text
    dropped = sorted(DRIVES)[1]
    partial = json.loads(text)
    del partial["drives"][dropped]
    path.write_text(json.dumps(partial, indent=1) + "\n")
    record_golden.main(str(path))
    assert recorded == [dropped]
    after = json.loads(path.read_text())["drives"]
    assert after.pop(dropped) == {"maps": [], "csv_sha256": dropped}
    assert after == partial["drives"]
