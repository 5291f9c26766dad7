"""Keyed on-disk cache for expensive workload generators.

Adversarial families (:func:`~repro.workloads.build_fifo_adversary`,
whose large builds spend their time freezing and validating millions of
subjobs) and large random trees are pure functions of their arguments, yet
the experiment harness regenerates them for every seed of every sweep. The
:func:`cached_generator` decorator memoizes their pickled results on disk,
keyed by a canonicalized argument signature.

The cache is **opt-in**: it is active only while the ``REPRO_CACHE_DIR``
environment variable points at a directory (resolved at call time, so tests
can flip it per-case). Each entry is a pickle framed by
:func:`~repro.core.io.frame_bytes` (magic, length, SHA-256); an entry that
fails its frame or does not unpickle is a miss, recomputed and rewritten
with a ``RuntimeWarning`` naming the file. Two safety valves keep cached
results faithful:

* arguments that cannot be canonicalized to primitives (e.g. a live
  ``numpy`` ``Generator`` passed as ``seed``) bypass the cache — such calls
  are not reproducible from their signature;
* each decorated generator can declare a ``safe`` predicate over its bound
  arguments; returning False bypasses the cache. The tree generators use it
  to require a concrete integer seed (with ``seed=None`` every call must
  draw fresh randomness, and serving a frozen copy would silently change
  the statistics of repeated-trial experiments).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import warnings
from pathlib import Path
from typing import Any, Callable, Optional

from ..core.io import load_framed_pickle, save_framed_pickle

__all__ = ["cached_generator", "workload_cache_dir", "clear_workload_cache"]

_ENV_VAR = "REPRO_CACHE_DIR"

#: Cache schema version, folded into every entry's key. Bump whenever the
#: pickled payload of cached generators changes shape — v2: instances and
#: DAGs grew precomputed chain-run arrays (``DAG.chain_runs`` /
#: ``Instance.chain_layout``); v3: ``Instance.__getstate__`` now strips the
#: cached flat/chain layouts from the pickle (they are rebuilt, re-frozen,
#: on first use), so v2 entries carrying thawed-on-unpickle arrays must be
#: regenerated rather than trusted to satisfy the frozen-CSR contract; v4:
#: entries are digest-framed (``_MAGIC``), so unframed v3 files are never
#: looked up.
_SCHEMA_VERSION = 4

_MAGIC = b"repro-workload-cache:1\n"


def workload_cache_dir() -> Optional[Path]:
    """The directory backing the workload cache, or ``None`` when disabled.

    Controlled by the ``REPRO_CACHE_DIR`` environment variable, read on
    every call (not at import), so enabling/disabling takes effect
    immediately.
    """
    raw = os.environ.get(_ENV_VAR, "").strip()
    return Path(raw) if raw else None


def clear_workload_cache() -> int:
    """Delete every cache entry; returns the number of files removed."""
    root = workload_cache_dir()
    if root is None or not root.is_dir():
        return 0
    removed = 0
    for path in root.glob("*.wlcache"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


class _Unkeyable(Exception):
    """Argument cannot be canonicalized into a stable cache key."""


def _canonical(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    raise _Unkeyable(type(value).__name__)


def cached_generator(
    fn: Optional[Callable] = None,
    *,
    safe: Optional[Callable[[dict], bool]] = None,
):
    """Decorator memoizing a pure generator's result on disk.

    ``safe`` (optional) receives the bound-and-defaulted argument dict and
    may veto caching for argument combinations whose output is not a pure
    function of the signature (e.g. ``seed=None``). See the module
    docstring for the activation rules.
    """

    def decorate(func: Callable) -> Callable:
        sig = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            root = workload_cache_dir()
            if root is None:
                return func(*args, **kwargs)
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = dict(bound.arguments)
                items = tuple(
                    (k, _canonical(v)) for k, v in sorted(arguments.items())
                )
            except (TypeError, _Unkeyable):
                return func(*args, **kwargs)
            if safe is not None and not safe(arguments):
                return func(*args, **kwargs)
            digest = hashlib.sha256(
                repr(
                    (_SCHEMA_VERSION, func.__module__, func.__qualname__, items)
                ).encode()
            ).hexdigest()
            path = root / f"{func.__name__}-{digest[:32]}.wlcache"
            if path.is_file():
                try:
                    return load_framed_pickle(path, _MAGIC)
                except Exception as exc:
                    # Corrupt/racing/stale entry. pickle can raise almost
                    # anything on garbage bytes (ValueError, AttributeError,
                    # UnpicklingError, ...); a cache must never turn that
                    # into a crash or a wrong answer — recompute and warn.
                    warnings.warn(
                        f"workload cache entry {path} is unreadable ({exc}); "
                        "recomputing it",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            value = func(*args, **kwargs)
            try:
                root.mkdir(parents=True, exist_ok=True)
                save_framed_pickle(path, _MAGIC, value)  # atomic for readers
            except OSError:
                pass  # caching is best-effort; the generated value is fine
            return value

        return wrapper

    if fn is not None:
        return decorate(fn)
    return decorate


def int_seed_required(arguments: dict) -> bool:
    """``safe`` predicate: cache only when ``seed`` is a concrete int."""
    return isinstance(arguments.get("seed"), int)
