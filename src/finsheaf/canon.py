"""Canonical label and key helpers, and the canonical JSON writer.

Every composite object built by the package (tuples in a limit, classes in
a colimit, germ families) gets a deterministic string label so that runs
are reproducible and JSON reports are byte-stable.  Composite labels use
`key=value` pairs joined by `|`, with `\\`, `|` and `=` backslash-escaped,
sorted by key.  Every report and file is written by ``write_canonical``.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Mapping
from functools import cached_property
from typing import IO, Any, Callable, Iterable

# Characters per write of ``write_canonical``.
BLOCK_CHARS = 1 << 16


def escape(s: str) -> str:
    if "\\" not in s and "|" not in s and "=" not in s:
        return s
    return s.replace("\\", "\\\\").replace("|", "\\|").replace("=", "\\=")


def pair_label(pairs: Iterable[tuple[str, str]]) -> str:
    """Deterministic composite label for a family of (key, value) pairs."""
    return "|".join(f"{escape(k)}={escape(v)}" for k, v in sorted(pairs))


def open_key(members: Iterable[str]) -> str:
    """Canonical sorted-label string naming an open set, e.g. ``"a,b"``."""
    return ",".join(sorted(members))


def open_of_key(key: str) -> frozenset[str]:
    """Inverse of ``open_key``."""
    return frozenset(key.split(",")) if key else frozenset()


def sort_opens(opens: Iterable[frozenset[str]]) -> list[frozenset[str]]:
    """Lexicographic order on sorted point labels; the empty set first."""
    return sorted(opens, key=lambda u: tuple(sorted(u)))


class Rows(Mapping):
    """A JSON object whose (key, value) rows ``produce()`` yields in key
    order, anew on every walk.

    ``write_canonical`` writes one row at a time, so the whole table is
    never held; key lookups build it once, as a dict.
    """

    def __init__(self, produce: Callable[[], Iterable[tuple[str, Any]]]):
        self.rows = produce

    @cached_property
    def _table(self) -> dict:
        return dict(self.rows())

    def __getitem__(self, key):
        return self._table[key]

    def __iter__(self):
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)


def materialize(value):
    """``value`` as plain dicts and lists, in the same order: every ``Rows``
    built into a dict and every iterator into a list, recursively."""
    if isinstance(value, Rows):
        return {k: materialize(v) for k, v in value.rows()}
    if isinstance(value, dict):
        return {k: materialize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, Iterator)):
        return [materialize(v) for v in value]
    return value


def _built(value):
    if isinstance(value, (Rows, Iterator)):
        return materialize(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical_json(payload) -> str:
    """The canonical text of ``payload``, by the stdlib's encoder with lazy
    parts built first: the reference whose bytes ``write_canonical`` writes."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False,
                      default=_built) + "\n"


_encode = json.encoder.encode_basestring  # the C escaper where built
_scalar = json.JSONEncoder(ensure_ascii=False).encode  # floats, unknowns raise
# Short pieces gathered before ``_Sink.flush`` looks at the block's size.
_PIECES = 4096


class _Sink(list):
    """The pieces of the block being gathered for ``fh``; ``size`` counts
    the characters of the long ones, whole tables and arrays of strings."""

    __slots__ = ("fh", "size")

    def flush(self) -> None:
        text = "".join(self)
        self.clear()
        if len(text) >= BLOCK_CHARS:
            self.fh.write(text)
            self.size = 0
        else:
            self.append(text)
            self.size = len(text)


def _emit(o, nl: str, out: _Sink) -> None:
    """Append the canonical text of ``o``; ``nl`` is a newline and the
    indent of the line ``o`` starts on."""
    t = type(o)
    if t is str:
        out.append(_encode(o))
    elif t is dict:
        if not o:
            out.append("{}")
            return
        keys = sorted(o)
        if type(o[keys[0]]) is str:
            inner = nl + "  "
            try:  # a table of strings: one piece
                text = "{" + inner + ("," + inner).join(
                    [_encode(k) + ": " + _encode(o[k]) for k in keys]) + nl + "}"
            except TypeError:
                pass
            else:
                out.append(text)
                out.size += len(text)
                return
        _emit_rows([(k, o[k]) for k in keys], nl, out)
    elif t is list or t is tuple:
        if o and type(o[0]) is str:
            inner = nl + "  "
            try:  # an array of strings: one piece
                text = "[" + inner + ("," + inner).join(map(_encode, o)) + nl + "]"
            except TypeError:
                pass
            else:
                out.append(text)
                out.size += len(text)
                return
        _emit_items(o, nl, out)
    elif t is bool:
        out.append("true" if o else "false")
    elif t is int:
        out.append(int.__repr__(o))
    elif o is None:
        out.append("null")
    elif isinstance(o, Rows):
        _emit_rows(o.rows(), nl, out, check=True)
    elif isinstance(o, dict):
        _emit_rows(sorted(o.items()), nl, out)
    elif isinstance(o, (list, tuple, Iterator)):
        _emit_items(o, nl, out)
    else:
        out.append(_scalar(o))


def _emit_rows(rows, nl: str, out: _Sink, check: bool = False) -> None:
    inner = nl + "  "
    lead, prev = "{" + inner, None
    for k, v in rows:
        if check and prev is not None and not prev < k:
            raise ValueError(f"rows out of key order: {prev!r} before {k!r}")
        out.append(lead + _encode(k) + ": ")
        _emit(v, inner, out)
        if out.size >= BLOCK_CHARS or len(out) >= _PIECES:
            out.flush()
        lead, prev = "," + inner, k
    out.append("{}" if prev is None else nl + "}")


def _emit_items(items, nl: str, out: _Sink) -> None:
    inner = nl + "  "
    lead = first = "[" + inner
    for v in items:
        out.append(lead)
        _emit(v, inner, out)
        if out.size >= BLOCK_CHARS or len(out) >= _PIECES:
            out.flush()
        lead = "," + inner
    out.append("[]" if lead is first else nl + "]")


def write_canonical(fh: IO[str], payload) -> None:
    """Write ``canonical_json(payload)`` to ``fh`` in blocks of at least
    ``BLOCK_CHARS`` characters (the last may be shorter).

    Dicts are walked in sorted key order, ``Rows`` one row at a time and
    iterators one item at a time, so the whole document is never held.
    Blocks rather than single pieces, because a captured stream keeps
    every piece it was handed.
    """
    out = _Sink()
    out.fh, out.size = fh, 0
    _emit(payload, "\n", out)
    out.append("\n")
    fh.write("".join(out))


def mapping_label(table: Mapping[str, str]) -> str:
    """Canonical label for a finite map, used to key Hom-set tables."""
    return pair_label(table.items())
