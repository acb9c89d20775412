"""Edited copies of checkpoints, so that each test of the format states its
corruption in one call."""

import json
from pathlib import Path


def edited_checkpoint(src, dst, header=None, blob=None, payload=None):
    """Copy checkpoint `src` to `dst` and return `dst`.  `header(h)` edits
    the parsed JSON header in place, `blob` replaces the header bytes
    outright, and `payload(p)` returns the float64 payload to write (cut,
    extended or changed)."""
    raw = Path(src).read_bytes()
    n = int.from_bytes(raw[4:8], "little")
    head, body = raw[8:8 + n], raw[8 + n:]
    if header is not None:
        edited = json.loads(head)
        header(edited)
        head = json.dumps(edited).encode("utf-8")
    if blob is not None:
        head = blob
    if payload is not None:
        body = payload(body)
    Path(dst).write_bytes(raw[:4] + len(head).to_bytes(4, "little") + head
                          + body)
    return dst
