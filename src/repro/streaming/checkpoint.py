"""Atomic on-disk checkpoints for streaming runs.

One checkpoint file holds one engine snapshot (see
:meth:`~repro.streaming.engine.StreamingEngine.snapshot`), pickled and
framed as a magic line, an 8-byte length, a SHA-256 digest and the
payload. Corruption from outside causes (disk faults, truncation by
other tools) is detected by the digest and reported as
:class:`CheckpointError` rather than deserialized blindly.

:func:`save_checkpoint` recycles the previous checkpoint's file rather
than freeing it. On a 2-vCPU host whose ext4 root is mounted with
``discard``, freeing an fsynced file's blocks took 50–80 ms at times
(0.2 ms at others), while the rest of a save takes well under 1 ms. The
file that ``path`` named before the latest save stays beside it as
``<path>.spare``, and each save

1. rewrites the spare in place with the framed snapshot, truncates it to
   that length and fsyncs it;
2. swaps the names through a hard link: ``os.link(path, <path>.hold)``,
   ``os.replace(<path>.spare, path)``, ``os.replace(<path>.hold,
   <path>.spare)``;
3. fsyncs the directory.

The data fsync comes before any rename, so a crash at any point, even a
``SIGKILL`` mid-write, leaves ``path`` naming the previous complete
checkpoint or the new one; only the spare, which nothing reads, can be
torn. The directory fsync comes after the renames and before the next
save rewrites the old file in place, so a power loss cannot pair a rename
that never reached the disk with a half-rewritten file.

A save writes only through names it owns. The spare is opened with
``O_NOFOLLOW`` and reused only as a regular file with one link that is
empty or starts with the checkpoint magic. A spare with more links (a
user's ``ln serve.ckpt backup.ckpt`` becomes one after the next save)
loses only its ``.spare`` name, and a fresh file takes its place. A
``<path>.hold`` left by a killed save is removed. Anything else at
either name raises :class:`CheckpointError` naming it and is left as it
is. New files are created with mode ``0o600``. When ``path`` is not such
a checkpoint file (it is absent, a symlink or a foreign file), or where
the filesystem has no hard links (``os.link`` raises ``OSError``), the
spare is moved onto ``path`` with a plain ``os.replace`` and the next
save starts a new spare.

Each checkpoint path takes one writer. Two processes saving to one path
can interleave their in-place writes into a file that fails its digest;
resuming from it raises :class:`CheckpointError`, never restores a wrong
state.
"""

from __future__ import annotations

import os
import pickle
import stat
from typing import Any

from ..core.exceptions import ReproError
from ..core.io import frame_bytes, unframe_bytes

__all__ = ["CheckpointError", "load_checkpoint", "save_checkpoint"]

_MAGIC = b"repro-stream-ckpt:1\n"


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file is unreadable (missing, corrupt, or foreign)."""


def save_checkpoint(path: str | os.PathLike, snapshot: dict[str, Any]) -> None:
    """Durably and atomically write ``snapshot`` to ``path``.

    The framed snapshot is written in place into ``<path>.spare`` and
    fsynced; ``path`` and the spare then swap names through the hard link
    ``<path>.hold``, and the directory is fsynced. The file ``path`` named
    before becomes the next save's spare, so no block is freed, and a kill
    at any point leaves ``path`` as the previous or the new checkpoint.
    Where ``path`` is not a checkpoint file or hard links are unsupported,
    a plain ``os.replace`` moves the spare onto ``path`` instead. See the
    module docstring for which files a save reuses.
    """
    name = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(name)) or "."
    os.makedirs(directory, exist_ok=True)
    blob = frame_bytes(_MAGIC, pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL))
    spare, hold = name + ".spare", name + ".hold"
    if _own(hold) is not None:  # a killed save's link to an older checkpoint
        os.unlink(hold)
    reuse = _own(spare)
    if reuse is not None and reuse.st_nlink > 1:
        os.unlink(spare)  # its other names keep the bytes
        reuse = None
    flags = os.O_WRONLY | os.O_NOFOLLOW
    if reuse is None:
        flags |= os.O_CREAT | os.O_EXCL
    fd = os.open(spare, flags, 0o600)
    try:
        view = memoryview(blob)
        while view:
            view = view[os.write(fd, view) :]
        os.ftruncate(fd, len(blob))
        os.fsync(fd)
    finally:
        os.close(fd)
    current = _lstat(name)
    swap = current is not None and _is_checkpoint_file(name, current)
    if swap:
        try:
            os.link(name, hold, follow_symlinks=False)
        except OSError:  # no hard links on this filesystem
            swap = False
    os.replace(spare, name)
    if swap:
        os.replace(hold, spare)
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _lstat(name: str) -> os.stat_result | None:
    """``os.lstat(name)``, or ``None`` when nothing is there."""
    try:
        return os.lstat(name)
    except FileNotFoundError:
        return None


def _is_checkpoint_file(name: str, st: os.stat_result) -> bool:
    """Whether ``name`` (``st`` its lstat) is a regular file that is empty
    or starts with the checkpoint magic: a file some save wrote."""
    if not stat.S_ISREG(st.st_mode):
        return False
    if st.st_size == 0:
        return True
    fd = os.open(name, os.O_RDONLY | os.O_NOFOLLOW)
    try:
        return os.pread(fd, len(_MAGIC), 0) == _MAGIC
    finally:
        os.close(fd)


def _own(name: str) -> os.stat_result | None:
    """The lstat of the save-written file at ``name``, ``None`` when
    nothing is there; :class:`CheckpointError` when something else is."""
    st = _lstat(name)
    if st is not None and not _is_checkpoint_file(name, st):
        raise CheckpointError(
            f"{name} is in the way of checkpoint writes and is not a checkpoint "
            "file; move it away"
        )
    return st


def load_checkpoint(path: str | os.PathLike) -> dict[str, Any]:
    """Read and validate a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` on a missing, truncated, corrupt, or
    foreign file — the caller decides whether that aborts the resume or
    falls back to a fresh run.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not blob.startswith(_MAGIC):
        raise CheckpointError(
            f"{path} is not a repro stream checkpoint (bad magic)"
        )
    try:
        payload = unframe_bytes(_MAGIC, blob)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} {exc}") from None
    try:
        snapshot = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path} failed to deserialize: {exc}"
        ) from exc
    if not isinstance(snapshot, dict):
        raise CheckpointError(f"checkpoint {path} holds no snapshot dict")
    return snapshot
