"""Exception types shared across the package, the JSON reader that turns
a malformed document into a :class:`DocumentError`, and the JSON writer
that prints every output document."""

import functools
import gc
import itertools
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
    """A fixed work or size bound was exceeded: more sources, or more
    set-function ground names, than ``setfunc.MAX_SOURCES``, more candidate
    blocks than ``simulator.MAX_ENUMERATION``, more (block, source subset)
    pairs in the typicality test than ``simulator.MAX_TYPICALITY_WORK``, a
    node input domain past int64, or an index set past 2^62."""


def load_json(text: str, kind: str):
    """Parse a ``kind`` document (network, source, set-function) from JSON.

    Invalid JSON, an integer past ``sys.get_int_max_str_digits()``, and an
    object that repeats a key (which ``json.loads`` would settle silently
    by keeping the last value) raise :class:`DocumentError`.

    The cyclic garbage collector is paused while the text is decoded: a
    large document allocates many containers and no garbage, so the
    collections they would set off find nothing.  It runs again
    afterwards, whatever the outcome, if it ran before.
    """
    def unique_keys(pairs: list) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise DocumentError(f"{kind} document repeats the key {key!r}")
                seen.add(key)
        return doc

    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{kind} document is not valid JSON: {exc}") from exc
    except ValueError as exc:  # the int-string limit, which JSONDecodeError does not cover
        raise DocumentError(f"{kind} document holds an integer too long to read: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


_SCALARS = frozenset({str, int, float, bool, type(None)})


def dump_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    objects with string keys, lists, tuples and JSON scalars.

    With ``indent`` set, ``json`` runs its pure-Python encoder.  Here every
    object or list whose children are all scalars, and every list of such
    objects (a document's rows), is encoded by the C encoder in one call,
    with the line break and indent of its level as the item separator, and
    laid into the indent template; the rest recurses.  The C encoder
    escapes every control character inside strings, so a line break in its
    output is always a separator.
    """
    return _dump(value, "\n")


@functools.cache
def _encoder(separator: str):
    return json.JSONEncoder(sort_keys=True, separators=(separator, ": ")).encode


def _dump(value, newline: str) -> str:
    inner = newline + "  "
    if isinstance(value, dict) and value:
        if not all(isinstance(key, str) for key in value):
            raise TypeError("dump_json writes objects with string keys only")
        if set(map(type, value.values())) <= _SCALARS:
            return "{" + inner + _encoder("," + inner)(value)[1:-1] + newline + "}"
        items = (json.dumps(key) + ": " + _dump(value[key], inner) for key in sorted(value))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)) and value:
        kinds = set(map(type, value))
        if kinds <= _SCALARS:
            return "[" + inner + _encoder("," + inner)(value)[1:-1] + newline + "]"
        if (kinds == {dict} and all(value)
                and set(map(type, itertools.chain.from_iterable(value))) == {str}
                and set(map(type, itertools.chain.from_iterable(map(dict.values, value))))
                <= _SCALARS):
            # Objects of scalars: one call indents their items a level
            # deeper, and each "},<sep>{" between two objects, which
            # nothing inside an object can spell, is redrawn a level up.
            field = inner + "  "
            body = _encoder("," + field)(value)[2:-2]
            body = body.replace("}," + field + "{", inner + "}," + inner + "{" + field)
            return "[" + inner + "{" + field + body + inner + "}" + newline + "]"
        items = (_dump(item, inner) for item in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value)  # a scalar, "{}" or "[]"
