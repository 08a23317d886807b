"""The command-line reports of the CI workflow's ideals and families are
pinned byte for byte by their digests in ``golden/digests.json``, and each
holds only what ``json`` writes as itself."""

import json

from conftest import count_calls
from golden_reports import GOLDEN, all_digests, digest, runs
from lexcohom import cli
from lexcohom.verify import THEOREMS


def test_every_pinned_report_is_unchanged():
    with open(GOLDEN) as fh:
        pinned = json.load(fh)
    now = all_digests()
    assert list(now) == list(pinned), "the pinned runs changed: record them again"
    changed = [key for key in pinned if now[key] != pinned[key]]
    assert not changed, f"first changed report: {changed[0]} ({len(changed)} in all)"


def _strays(value, path="report"):
    """The places in ``value`` of what a report never holds: anything but a
    dict with str keys, a list, str, int, bool or None.  A float (so a wall
    time) is one, and so is a tuple or an int key, which ``json.dumps``
    would write as a list or a str."""
    if type(value) is dict:
        for k, v in value.items():
            if type(k) is str:
                yield from _strays(v, f"{path}[{k!r}]")
            else:
                yield f"{path}: key {k!r}"
    elif type(value) is list:
        for i, v in enumerate(value):
            yield from _strays(v, f"{path}[{i}]")
    elif type(value) not in (str, int, bool, type(None)):
        yield f"{path}: {type(value).__name__}"


def test_every_report_holds_only_str_keyed_dicts_lists_str_int_bool_and_none(monkeypatch,
                                                                             tmp_path):
    assert list(_strays({"a": [1, True, None, "x", {}], "t": 0.5, 2: 0, "u": (1,)})) == [
        "report['t']: float", "report: key 2", "report['u']: tuple"]
    calls = count_calls(monkeypatch, cli._emit_json)
    strays, written = [], set()
    for key, argv, text in runs():
        calls.clear()
        digest(argv, text, str(tmp_path))
        for _, payload in calls:
            strays += [f"{key}: {s}" for s in _strays(payload)]
            written.add(payload.get("command", payload.get("theorem")))
            written.add(payload.get("backend"))
    assert not strays, strays[:5]
    # every command, both backends and every theorem wrote a report
    commands = {"hilb", "lex", "lpp", "betti", "cohom", "zstabilize"}
    assert written == commands | set(THEOREMS) | {"combinatorial", "ext", None}
