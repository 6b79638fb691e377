"""How bytes become durable: the one write-tmp/fsync/publish protocol.

The checkpoint, result store, work queue, service journal, diagnostics
bundles and the ensemble checkpoint all publish through this module, so
one place owns both the syscall sequence and the failpoints inside it.
A publish is open/write/flush/fsync of a scratch file, ``os.replace``
onto the target, then an fsync of the target's directory so the rename
itself survives power loss.  With chaos inactive the failpoints are
no-ops, which keeps the strict-no-op golden test honest.

Scratch files are named ``.{name}.{pid}.{uuid8}.tmp``: unique per
writer, and invisible to the ``*.json`` readers of the directories they
share.  The failpoints sit at the interesting instants of a commit:

* after the payload reaches the scratch file but before fsync
  (``post_tmp`` / the append site) — the torn-write window;
* after fsync but before the rename publishes the data
  (``pre_rename``) — a crash here loses nothing visible.
"""

from __future__ import annotations

import errno
import os
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.chaos.failpoints import failpoint

#: scratch older than this belongs to a dead writer; a live commit holds
#: its scratch for milliseconds
SCRATCH_MAX_AGE_S = 60.0


class StoreUnavailableError(OSError):
    """Durable storage failed (ENOSPC/EIO) during a commit.

    The typed wrapper callers catch instead of bare ``OSError``: it
    names the operation that failed and guarantees the failed commit
    left no half-written scratch behind (tmp files are cleaned on the
    error path before this is raised).  Raised by checkpoint writes and
    :class:`repro.service.store.RunRecordStore` commits.
    """

    def __init__(self, op: str, exc: OSError) -> None:
        super().__init__(
            exc.errno if exc.errno is not None else errno.EIO,
            f"{op}: {exc.strerror or exc}",
            getattr(exc, "filename", None),
        )
        self.op = op


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


def fsync_dir(path: Path | str) -> None:
    """Best-effort directory fsync so renames survive power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def staged(
    text: str, *, tmp_dir: Path | str, name: str, post_tmp: str | None = None
) -> Iterator[Path]:
    """Yield the path of a fsynced scratch file holding ``text``.

    The caller publishes it (rename, link) inside the block; the scratch
    is unlinked on every exit path, so a failed commit leaves nothing.
    """
    tmp = Path(tmp_dir) / f".{name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    try:
        with open(tmp, "w") as f:
            f.write(text)
            f.flush()
            if post_tmp is not None:
                failpoint(post_tmp, path=tmp, data=text)
            os.fsync(f.fileno())
        yield tmp
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def write_atomic(
    path: Path | str,
    text: str,
    *,
    tmp_dir: Path | str | None = None,
    post_tmp: str | None = None,
    pre_rename: str | None = None,
) -> None:
    """Publish ``text`` at ``path``: readers see the old or the new file.

    Scratch goes to ``tmp_dir`` (default: beside ``path``; it must be on
    the same filesystem).  Raises ``OSError``; callers map it to their
    own error type.
    """
    path = Path(path)
    with staged(
        text, tmp_dir=path.parent if tmp_dir is None else tmp_dir,
        name=path.name, post_tmp=post_tmp,
    ) as tmp:
        if pre_rename is not None:
            failpoint(pre_rename, path=path, data=text)
        os.replace(tmp, path)
    fsync_dir(path.parent)


def sweep_scratch(tmp_dir: Path | str) -> None:
    """Delete scratch left by dead writers (older than
    :data:`SCRATCH_MAX_AGE_S`), sparing any commit still in flight."""
    cutoff = time.time() - SCRATCH_MAX_AGE_S
    try:
        entries = list(os.scandir(tmp_dir))
    except OSError:
        return
    for entry in entries:
        try:
            if entry.stat(follow_symlinks=False).st_mtime < cutoff:
                os.unlink(entry.path)
        except OSError:
            pass
