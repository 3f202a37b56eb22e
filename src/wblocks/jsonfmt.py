"""The two JSON layouts the program writes, each with one encoder built at
import.

json.dumps with any argument besides the object builds a JSONEncoder and
its C encoder again on every call; a one-shot CLI call pays that for each
line it prints, each cache path and each family vector.  compact(obj) is
json.dumps(obj, sort_keys=True, separators=(",", ":")) and spaced(obj) is
json.dumps(obj, sort_keys=True), byte for byte, errors included: both use
the C encoder json.dumps builds, given the same arguments.
"""

from __future__ import annotations

from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii


def _encoder(item_separator: str, key_separator: str):
    encoder = JSONEncoder(sort_keys=True, separators=(item_separator, key_separator))
    if c_make_encoder is None:  # an interpreter without the C accelerator
        return encoder.encode
    markers: dict = {}  # ids of the containers being encoded, to detect cycles
    encode = c_make_encoder(markers, encoder.default, encode_basestring_ascii, None,
                            key_separator, item_separator, True, False, True)

    def dumps(obj) -> str:
        try:
            return "".join(encode(obj, 0))
        finally:
            markers.clear()  # an error leaves the ids of the containers it was in

    return dumps


compact = _encoder(",", ":")
spaced = _encoder(", ", ": ")
