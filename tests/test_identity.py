"""The comparison logic of identity/run.py, on outputs made up here; the script's commands are not run."""

import hashlib
import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("identity_run", Path(__file__).parent.parent / "identity" / "run.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def _manifest(**fields) -> bytes:
    base = {"config_text": "run.trials = 2\n", "results": [{"hits": 1}], "errors": [], "created_utc": "t0",
            "peak_rss_mb": 80.0, "numpy_version": "1"}
    return json.dumps(base | fields).encode()


def _digest(name: str, data: bytes) -> str:
    return hashlib.sha256(identity.comparable(name, data)).hexdigest()


def test_identical_outputs_are_same_and_json_ignores_host_and_clock():
    before = {"a.csv": b"x,1\n", "a.csv.exit": b"0", "b.json": _manifest()}
    after = {"a.csv": b"x,1\n", "a.csv.exit": b"0", "b.json": _manifest(created_utc="t1", peak_rss_mb=90.0)}
    lines, identical = identity.compare(before, after)
    assert identical
    assert lines == [f"same {_digest(name, data)} {name}" for name, data in after.items()]


def test_one_changed_byte_differs_and_shows_both_digests():
    before, after = {"a.csv": b"x,1\n", "c.csv": b"y\n"}, {"a.csv": b"x,2\n", "c.csv": b"y\n"}
    lines, identical = identity.compare(before, after)
    assert not identical
    old, new = (hashlib.sha256(data).hexdigest() for data in (b"x,1\n", b"x,2\n"))
    assert lines[0] == f"DIFF {new} a.csv (was {old})"
    assert lines[1].startswith("same ")


def test_json_fields_of_the_inputs_differ():
    for field, value in (("results", [{"hits": 2}]), ("errors", ["x"]), ("config_text", "run.trials = 3\n")):
        lines, identical = identity.compare({"b.json": _manifest()}, {"b.json": _manifest(**{field: value})})
        assert not identical and lines[0].startswith("DIFF "), field


def test_missing_output_differs_on_either_side():
    lines, identical = identity.compare({"a.csv": b"1", "gone.csv": b"2"}, {"a.csv": b"1", "new.csv": b"3"})
    assert not identical
    assert lines[1] == f"DIFF {hashlib.sha256(b'3').hexdigest()} new.csv (was -)"
    assert lines[2] == f"DIFF - gone.csv (was {hashlib.sha256(b'2').hexdigest()})"


def test_a_json_output_that_is_no_json_compares_whole():
    # A failed command leaves an empty stdout where its manifest would be.
    assert identity.comparable("b.json", b"") == b""
    lines, identical = identity.compare({"b.json": b""}, {"b.json": _manifest()})
    assert not identical
