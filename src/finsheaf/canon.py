"""Canonical label and key helpers.

Every composite object built by the package (tuples in a limit, classes in
a colimit, germ families) gets a deterministic string label so that runs
are reproducible and JSON reports are byte-stable.  Composite labels use
`key=value` pairs joined by `|`, with `\\`, `|` and `=` backslash-escaped,
sorted by key.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Mapping

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


def canonical_json(payload) -> str:
    """Byte-stable JSON used for every file and report this package writes."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_canonical(fh: IO[str], payload) -> None:
    """Write ``canonical_json(payload)`` to ``fh`` in blocks of about
    ``BLOCK_CHARS`` characters.

    ``json.dumps`` joins the encoder's chunks, so the bytes are the same;
    the whole document is never held at once.  Blocks rather than single
    chunks, because a captured stream keeps every piece it was handed.
    """
    encoder = json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False)
    block: list[str] = []
    size = 0
    for chunk in encoder.iterencode(payload):
        block.append(chunk)
        size += len(chunk)
        if size >= BLOCK_CHARS:
            fh.write("".join(block))
            block, size = [], 0
    block.append("\n")
    fh.write("".join(block))


def mapping_label(table: Mapping[str, str]) -> str:
    """Canonical label for a finite map, used to key Hom-set tables."""
    return pair_label(table.items())
