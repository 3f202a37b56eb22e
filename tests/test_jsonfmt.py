"""The prebuilt encoders write the bytes json.dumps writes with the same
arguments, and raise what it raises."""

import json

import pytest

from wblocks import jsonfmt

# each encoder and the json.dumps arguments it stands for
ENCODERS = [
    (jsonfmt.compact, {"sort_keys": True, "separators": (",", ":")}),
    (jsonfmt.spaced, {"sort_keys": True}),
]
IDS = ["compact", "spaced"]

VALUES = [
    {"b": {"z": [1, {"y": None, "x": [True, False]}], "a": []}, "a": {}, "c": [[], [[]], {}]},
    [2 ** 200, -(2 ** 200), -1, 0, 10 ** 30 + 1],
    {"0.1": 0.1, "small": 1e-7, "big": 1e16, "neg": -2.5, "int-like": 3.0},
    {"ä": "naïve ✓ 日本", "ctl": "\x00\x01\t\n\r\x1f\x7f\"\\/", "emoji": "\U0001f600"},
    {10: "ten", 2: "two", -1: "minus one"},
    "a string alone", 7, None, True, 0.1, [], {},
]


@pytest.mark.parametrize("encode,kwargs", ENCODERS, ids=IDS)
def test_bytes_match_json_dumps(encode, kwargs):
    for value in VALUES:
        assert encode(value) == json.dumps(value, **kwargs), value


@pytest.mark.parametrize("encode,kwargs", ENCODERS, ids=IDS)
def test_errors_match_json_dumps(encode, kwargs):
    cycle: list = []
    cycle.append({"k": cycle})
    for bad in [object(), {"a": [1, {2, 3}]}, [1, b"bytes"], {(1, 2): 3}, cycle]:
        with pytest.raises((TypeError, ValueError)) as want:
            json.dumps(bad, **kwargs)
        # twice: a failed call must leave no container marked as being
        # encoded, or the second would report a circular reference
        for _ in range(2):
            with pytest.raises(want.type) as got:
                encode(bad)
            assert str(got.value) == str(want.value)
    assert encode(VALUES[0]) == json.dumps(VALUES[0], **kwargs)
