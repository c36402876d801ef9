"""Crash-consistency primitives: fsync discipline for atomic publication.

``os.replace`` gives *atomicity* — a reader never sees half a file — but
not *durability*: after a power loss the rename, the file contents, or an
appended log line may simply not be there, and worse, they may survive
*partially* (a torn page).  The catalog's publication protocol needs the
classic three-step discipline:

1. write the staged file, ``fsync`` it (contents are on stable storage),
2. ``os.replace``/``os.link`` it into place,
3. ``fsync`` the parent directory (the *name* is on stable storage).

These helpers centralize that discipline so every durable writer in the
repo (the metric catalog, its append-only version log) spells it the
same way.  Durability is a policy knob — ``durable=False`` skips the
syncs for throwaway stores (tests, tmpfs scratch) without changing any
other semantics — and platforms that cannot fsync a directory (some
network filesystems) degrade to syncing the file alone rather than
failing the publish.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union

__all__ = [
    "durable_append",
    "durable_replace",
    "durable_write",
    "fsync_dir",
]

_PathLike = Union[str, Path]


def fsync_dir(path: _PathLike) -> None:
    """Flush one directory's entries (file names) to stable storage.

    Directory fsync is what makes a rename durable.  Filesystems that
    refuse to fsync a directory handle (observed on some CIFS/NFS
    mounts) degrade silently: the publish stays atomic, just not
    provably durable there.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover — platform-dependent degradation
        pass
    finally:
        os.close(fd)


def durable_write(path: _PathLike, data: Union[str, bytes], *, durable: bool = True) -> None:
    """Write ``path`` in place and (optionally) fsync it.

    This is the *staging* half of a publish: the caller is expected to
    follow with :func:`durable_replace` (or ``os.link``) into the final
    name.  Writing the final path directly with this helper is only safe
    for files whose partial existence is harmless.
    """
    path = Path(path)
    mode = "wb" if isinstance(data, bytes) else "w"
    with path.open(mode) as fh:
        fh.write(data)
        if durable:
            fh.flush()
            os.fsync(fh.fileno())


def durable_replace(staged: _PathLike, final: _PathLike, *, durable: bool = True) -> None:
    """Atomically rename ``staged`` to ``final``; fsync the parent so the
    new name survives power loss.  The staged file must already be
    synced (:func:`durable_write`)."""
    os.replace(os.fspath(staged), os.fspath(final))
    if durable:
        fsync_dir(Path(final).parent)


def durable_append(path: _PathLike, line: str, *, durable: bool = True) -> None:
    """Append one line to a log file with fsync.

    Appends are not atomic across power loss — a torn tail line is
    possible — which is why readers of ``log.jsonl``-style files must
    tolerate (and fsck must repair) a final partial line.  The fsync
    bounds the damage to at most that one line.
    """
    path = Path(path)
    with path.open("a") as fh:
        fh.write(line)
        if durable:
            fh.flush()
            os.fsync(fh.fileno())
