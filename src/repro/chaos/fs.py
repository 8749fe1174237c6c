"""The injectable I/O layer under the durability-critical write paths.

An ``errfs`` in miniature: the store, queue, and checkpoint commit
protocols route their writes through these two helpers instead of bare
``os`` calls, so one layer owns both the real syscall sequence and the
failpoints inside it.  With chaos inactive each helper performs
*exactly* the open/write/flush/fsync/replace sequence the callers used
to inline — same syscalls, same order, same buffering — which is what
keeps the strict-no-op golden test honest.

The failpoints sit at the interesting instants of each protocol:

* after the payload reaches the tmp/append file but before fsync
  (``post_tmp`` / the append site) — the torn-write window;
* after fsync but before the rename/link publishes the data
  (``pre_rename``) — a crash here loses nothing visible.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.chaos.failpoints import failpoint


def append_line(path: Path | str, line: str, *, site: str) -> None:
    """Durably append one line: failpoint, open-append, write, fsync.

    ``site`` fires *before* the write with the payload attached, so a
    ``torn`` rule can leave a believable half-appended line behind —
    exactly the damage ``checkpoint.repair_tail`` exists to undo.
    """
    failpoint(site, path=path, data=line)
    with open(path, "a") as f:
        f.write(line)
        f.flush()
        os.fsync(f.fileno())


def write_text_atomic(
    path: Path | str,
    text: str,
    tmp: Path | str,
    *,
    post_tmp: str | None = None,
    pre_rename: str | None = None,
) -> None:
    """Publish ``text`` at ``path`` via write-tmp/fsync/os.replace.

    The caller owns ``tmp`` (naming, collision avoidance, cleanup on
    error — callers already unlink it in their ``finally``).  Both
    failpoints are optional so protocols can expose only the windows
    they care about.
    """
    _publish(path, text, tmp, "w", post_tmp, pre_rename)


def write_bytes_atomic(
    path: Path | str,
    data: bytes,
    tmp: Path | str,
    *,
    post_tmp: str | None = None,
    pre_rename: str | None = None,
) -> None:
    """:func:`write_text_atomic` for a binary payload (same syscalls,
    same failpoints)."""
    _publish(path, data, tmp, "wb", post_tmp, pre_rename)


def _publish(path, data, tmp, mode: str, post_tmp, pre_rename) -> None:
    with open(tmp, mode) as f:
        f.write(data)
        f.flush()
        if post_tmp is not None:
            failpoint(post_tmp, path=tmp, data=data)
        os.fsync(f.fileno())
    if pre_rename is not None:
        failpoint(pre_rename, path=path, data=data)
    os.replace(tmp, path)
