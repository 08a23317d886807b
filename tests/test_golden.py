"""The command-line reports of the CI workflow's ideals and families are
pinned byte for byte by their digests in ``golden/digests.json``."""

import json

from golden_reports import GOLDEN, all_digests


def test_every_pinned_report_is_unchanged():
    with open(GOLDEN) as fh:
        pinned = json.load(fh)
    now = all_digests()
    assert list(now) == list(pinned), "the pinned runs changed: record them again"
    changed = [key for key in pinned if now[key] != pinned[key]]
    assert not changed, f"first changed report: {changed[0]} ({len(changed)} in all)"
