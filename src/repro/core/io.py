"""Serialization: persist DAGs, instances and schedules.

Experiments freeze adversarial instances and witness schedules; being able
to save them (and reload them in a later session, a notebook, or a bug
report) is table stakes for a release. Formats:

* **dict/JSON** — human-readable, good for small instances and fixtures;
* **npz** — compact binary for large frozen families (the m=128
  adversarial instance has 8.4M subjobs; JSON would be absurd).

Round-trips are exact: ids, releases, labels, completion times.

Files that hold pickles (stream checkpoints, workload-cache entries,
sweep journals) are digest-framed (:func:`frame_bytes`), so a truncated or
bit-flipped file is detected before anything is unpickled.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
import zipfile
import zlib
from pathlib import Path
from typing import Any, Union

import numpy as np

from .dag import DAG
from .exceptions import ConfigurationError, ReproError, ScheduleError
from .instance import Instance
from .job import Job
from .schedule import Schedule
from .util import Array, as_index

__all__ = [
    "dag_to_dict",
    "dag_from_dict",
    "instance_to_dict",
    "instance_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_instance_json",
    "load_instance_json",
    "save_schedule_npz",
    "load_schedule_npz",
    "frame_bytes",
    "unframe_bytes",
    "save_framed_pickle",
    "load_framed_pickle",
]

PathLike = Union[str, Path]

#: What a truncated, bit-flipped or foreign file raises while it is read
#: and rebuilt (``json.JSONDecodeError`` and ``UnicodeDecodeError`` are
#: ``ValueError``s).
_CORRUPT = (
    ReproError, EOFError, ValueError, KeyError, IndexError, TypeError,
    zipfile.BadZipFile, zlib.error,
)


# ----------------------------------------------------------------------
# dict / JSON
# ----------------------------------------------------------------------


def dag_to_dict(dag: DAG) -> dict[str, Any]:
    """Canonical dict form: node count + edge list."""
    return {"n": dag.n, "edges": [[int(u), int(v)] for u, v in dag.edge_list()]}


def dag_from_dict(data: dict[str, Any]) -> DAG:
    """Inverse of :func:`dag_to_dict`; a non-integer count or endpoint
    raises :class:`ConfigurationError` rather than being truncated."""
    edges = [
        (as_index(u, "edge endpoint"), as_index(v, "edge endpoint"))
        for u, v in data["edges"]
    ]
    return DAG(as_index(data["n"], "n"), edges)


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    return {
        "jobs": [
            {
                "release": job.release,
                "label": job.label,
                "dag": dag_to_dict(job.dag),
            }
            for job in instance
        ]
    }


def instance_from_dict(data: dict[str, Any]) -> Instance:
    return Instance(
        [
            Job(dag_from_dict(j["dag"]), as_index(j["release"], "release"), j.get("label"))
            for j in data["jobs"]
        ]
    )


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    return {
        "m": schedule.m,
        "instance": instance_to_dict(schedule.instance),
        "completion": [c.tolist() for c in schedule.completion],
    }


def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    instance = instance_from_dict(data["instance"])
    completion = [np.asarray(c, dtype=np.int64) for c in data["completion"]]
    return Schedule(instance, int(data["m"]), completion)


def save_instance_json(instance: Instance, path: PathLike) -> None:
    """Write ``instance`` to ``path`` as JSON (see :func:`instance_to_dict`)."""
    Path(path).write_text(json.dumps(instance_to_dict(instance)))


def load_instance_json(path: PathLike) -> Instance:
    """Read an instance previously written by :func:`save_instance_json`.

    A missing file, or one that is not such an instance, raises
    :class:`ConfigurationError` naming ``path``.
    """
    try:
        return instance_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except FileNotFoundError:
        raise ConfigurationError(f"instance file {path} does not exist") from None
    except _CORRUPT as exc:
        raise ConfigurationError(f"corrupt instance file {path}: {exc}") from exc


# ----------------------------------------------------------------------
# npz (binary, for large frozen families)
# ----------------------------------------------------------------------


def save_schedule_npz(schedule: Schedule, path: PathLike) -> None:
    """Binary snapshot: per-job edge arrays, releases, completions.

    Labels are stored as a JSON side-string inside the archive.
    """
    arrays: dict[str, Array] = {"m": np.array([schedule.m], dtype=np.int64)}
    meta: list[dict[str, Any]] = []
    for i, job in enumerate(schedule.instance):
        dag = job.dag
        sources = np.repeat(
            np.arange(dag.n, dtype=np.int64), np.diff(dag.child_indptr)
        )
        arrays[f"job{i}_src"] = sources
        arrays[f"job{i}_dst"] = dag.child_indices
        arrays[f"job{i}_completion"] = np.asarray(schedule.completion[i])
        meta.append({"n": dag.n, "release": job.release, "label": job.label})
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    np.savez_compressed(Path(path), **arrays)


def load_schedule_npz(path: PathLike) -> Schedule:
    """Read a schedule previously written by :func:`save_schedule_npz`.

    A missing, truncated, bit-flipped or foreign file, or one whose
    schedule fails validation, raises :class:`ScheduleError` naming
    ``path``.
    """
    try:
        with np.load(Path(path)) as data:
            meta = json.loads(bytes(data["meta"].tobytes()).decode("utf-8"))
            m = int(data["m"][0])
            jobs: list[Job] = []
            completion: list[Array] = []
            for i, info in enumerate(meta):
                edges = list(
                    zip(data[f"job{i}_src"].tolist(), data[f"job{i}_dst"].tolist())
                )
                dag = DAG(int(info["n"]), edges)
                jobs.append(Job(dag, int(info["release"]), info.get("label")))
                completion.append(np.asarray(data[f"job{i}_completion"], dtype=np.int64))
        return Schedule(Instance(jobs), m, completion)
    except FileNotFoundError:
        raise ScheduleError(f"schedule archive {path} does not exist") from None
    except _CORRUPT as exc:
        raise ScheduleError(f"corrupt schedule archive {path}: {exc}") from exc


# ----------------------------------------------------------------------
# digest framing (for files that hold pickles)
# ----------------------------------------------------------------------


def frame_bytes(magic: bytes, payload: bytes) -> bytes:
    """``payload`` framed as ``magic``, its 8-byte little-endian length,
    its SHA-256 digest, then the payload itself."""
    return b"".join(
        (magic, len(payload).to_bytes(8, "little"), hashlib.sha256(payload).digest(), payload)
    )


def unframe_bytes(magic: bytes, blob: bytes) -> bytes:
    """The payload of a :func:`frame_bytes` frame; ``ValueError`` (its
    message completes "the file ...") for a bad magic, a short blob or a
    failed digest."""
    if not blob.startswith(magic):
        raise ValueError("has a bad magic")
    length_end = len(magic) + 8
    header_end = length_end + hashlib.sha256().digest_size
    length = int.from_bytes(blob[len(magic) : length_end], "little")
    payload = blob[header_end:]
    if len(blob) < header_end or len(payload) != length:
        raise ValueError(f"is truncated ({len(blob)} bytes in all)")
    if hashlib.sha256(payload).digest() != blob[length_end:header_end]:
        raise ValueError("failed its integrity digest")
    return payload


def save_framed_pickle(path: Path, magic: bytes, value: Any) -> None:
    """Write ``value`` pickled and framed under ``magic`` to ``path``,
    atomically: through a temporary file in ``path``'s directory and
    ``os.replace``, so readers see the old file or the new one."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(frame_bytes(magic, pickle.dumps(value)))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_framed_pickle(path: Path, magic: bytes) -> Any:
    """The value :func:`save_framed_pickle` wrote to ``path`` (see
    :func:`unframe_bytes` for what a bad frame raises)."""
    return pickle.loads(unframe_bytes(magic, path.read_bytes()))
