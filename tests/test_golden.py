"""Every cycle's live map and the metrics CSV match the recorded digests.

The digests in ``golden_digests.json`` were recorded by
``record_golden.py``; a change that alters any stored mass bit, layer
step, patch set or CSV row fails here.
"""

import json
from pathlib import Path

import pytest

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
