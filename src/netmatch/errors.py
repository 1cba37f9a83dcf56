"""Exception types shared across the package, and the JSON reader that
turns a malformed document into a :class:`DocumentError`."""

import json


class NetmatchError(Exception):
    """Base class for all netmatch-specific errors."""


class DocumentError(NetmatchError):
    """An input document (network, source model, set function) is malformed
    or semantically invalid: bad syntax, unknown node, negative capacity,
    duplicate edge, un-normalized pmf, and the like."""


class CycleError(NetmatchError):
    """The digraph contains a directed cycle.

    ``cycle`` holds one offending node sequence (without the repeated
    closing node).
    """

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__("directed cycle: " + " -> ".join(self.cycle + (self.cycle[0],)))


class LimitError(NetmatchError):
    """A fixed work or size bound was exceeded: more sources than
    ``setfunc.MAX_SOURCES``, more candidate blocks than
    ``simulator.MAX_ENUMERATION``, a node input domain past int64, or an
    index set past 2^62."""


def load_json(text: str, kind: str):
    """Parse a ``kind`` document (network, source, set-function) from JSON.

    Invalid JSON, and an object that repeats a key (which ``json.loads``
    would settle silently by keeping the last value), raise
    :class:`DocumentError`.
    """
    def unique_keys(pairs: list) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise DocumentError(f"{kind} document repeats the key {key!r}")
            doc[key] = value
        return doc

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{kind} document is not valid JSON: {exc}") from exc
