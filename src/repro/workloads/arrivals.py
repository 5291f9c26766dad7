"""Arrival processes: turn a stream of DAGs into an online instance.

The paper's analyses distinguish three arrival regimes:

* **batched** (Section 6): at most one (merged) job per integer multiple of
  a period;
* **semi-batched** (Section 5.3): releases at integer multiples of a
  half-period;
* **general** (Section 5.4): arbitrary integer release times — generated
  here by Poisson and bursty processes.

The ``*_instance`` builders below materialize a *finite* instance up
front. The :class:`ArrivalSource` API is the streaming counterpart: an
(optionally unbounded) arrival process defined as a **pure function of the
job index**, so the streaming engine (:mod:`repro.streaming`) can admit
job ``k`` without holding jobs ``0..k-1`` in memory, and a crash-safe
checkpoint needs to store only the cursor ``(next_index, next_release)``
plus the live jobs' done-masks — each live DAG is re-derived from its
index on resume, bit-identically.

Contract
--------
* ``dag_at(k)`` must return the same DAG for the same ``k`` on every call
  in every process (derive per-job randomness from
  ``np.random.default_rng((seed, ..., k))`` seed sequences — never from a
  shared stream whose state depends on call order).
* ``gap_before(k)`` is the integer gap between job ``k-1``'s release and
  job ``k``'s (``gap_before(0)`` is job 0's release); gaps are ``>= 0``,
  so releases are nondecreasing in the index.
* ``fingerprint()`` is a stable string identifying the configured process;
  checkpoints embed it so a resume under a different stream is rejected
  instead of silently mixing runs.
"""

from __future__ import annotations

import abc
import hashlib
from typing import Optional, Sequence

import numpy as np

from ..core.dag import DAG
from ..core.exceptions import ConfigurationError
from ..core.instance import Instance
from ..core.job import Job
from .random_trees import galton_watson_tree, layered_tree, random_attachment_tree

__all__ = [
    "batched_instance",
    "semi_batched_instance",
    "poisson_instance",
    "bursty_instance",
    "ArrivalSource",
    "PoissonSource",
    "TraceReplaySource",
    "AdversarialDripSource",
    "STREAM_FAMILIES",
    "stream_prefix_instance",
]


def _label(prefix: str, i: int) -> str:
    return f"{prefix}{i}"


def batched_instance(dags: Sequence[DAG], period: int) -> Instance:
    """One job per multiple of ``period``: ``dags[i]`` released at
    ``i * period`` (the Section 6 arrival regime)."""
    if period < 1:
        raise ConfigurationError("period must be >= 1")
    if not dags:
        raise ConfigurationError("need at least one DAG")
    return Instance(
        [Job(d, i * period, _label("batch", i)) for i, d in enumerate(dags)]
    )


def semi_batched_instance(
    dags: Sequence[DAG],
    half_period: int,
    *,
    skip_slots: Sequence[int] = (),
) -> Instance:
    """Releases at multiples of ``half_period`` (Section 5.3 regime).

    ``skip_slots`` omits the given slot indices, producing gaps (the
    assumption allows any subset of multiples)."""
    if half_period < 1:
        raise ConfigurationError("half_period must be >= 1")
    if not dags:
        raise ConfigurationError("need at least one DAG")
    skip = set(skip_slots)
    jobs = []
    slot = 0
    for i, d in enumerate(dags):
        while slot in skip:
            slot += 1
        jobs.append(Job(d, slot * half_period, _label("semi", i)))
        slot += 1
    return Instance(jobs)


def poisson_instance(
    dags: Sequence[DAG],
    rate: float,
    seed=None,
) -> Instance:
    """Poisson arrivals: i.i.d. geometric-ish integer inter-arrival gaps
    with mean ``1 / rate`` (continuous exponentials rounded to integers,
    matching the paper's integer release times)."""
    if rate <= 0:
        raise ConfigurationError("rate must be positive")
    if not dags:
        raise ConfigurationError("need at least one DAG")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    t = 0
    jobs = []
    for i, d in enumerate(dags):
        jobs.append(Job(d, t, _label("poisson", i)))
        t += int(np.round(rng.exponential(1.0 / rate)))
    return Instance(jobs)


def bursty_instance(
    dags: Sequence[DAG],
    *,
    burst_size: int,
    quiet_gap: int,
    seed: Optional[int] = None,
) -> Instance:
    """Bursts of ``burst_size`` simultaneous jobs separated by
    ``quiet_gap`` idle time units (stress-tests batching reductions)."""
    if burst_size < 1:
        raise ConfigurationError("burst_size must be >= 1")
    if quiet_gap < 0:
        raise ConfigurationError("quiet_gap must be >= 0")
    if not dags:
        raise ConfigurationError("need at least one DAG")
    jobs = []
    t = 0
    for i, d in enumerate(dags):
        if i and i % burst_size == 0:
            t += quiet_gap
        jobs.append(Job(d, t, _label("burst", i)))
    return Instance(jobs)


# ----------------------------------------------------------------------
# Streaming arrival sources (pure functions of the job index)
# ----------------------------------------------------------------------


class ArrivalSource(abc.ABC):
    """An (optionally unbounded) deterministic stream of jobs.

    See the module docstring for the purity contract. ``n_jobs`` is the
    total stream length, or ``None`` for an unbounded process.
    """

    #: Short process name (reported in fingerprints and metrics ticks).
    name: str = "stream"

    #: Total number of jobs, or ``None`` when the stream is unbounded.
    n_jobs: Optional[int] = None

    @abc.abstractmethod
    def dag_at(self, index: int) -> DAG:
        """The DAG of job ``index`` (pure function of the index)."""

    @abc.abstractmethod
    def gap_before(self, index: int) -> int:
        """Integer release gap between jobs ``index - 1`` and ``index``
        (``gap_before(0)`` is job 0's absolute release)."""

    @abc.abstractmethod
    def fingerprint(self) -> str:
        """Stable identity string of the configured process (embedded in
        streaming checkpoints to reject resumes under a different stream)."""

    def release_of(self, index: int) -> int:
        """Absolute release of job ``index`` — O(index), for tests and
        prefix materialization; the engine tracks releases incrementally."""
        if index < 0:
            raise ConfigurationError(f"job index must be >= 0, got {index}")
        if self.n_jobs is not None and index >= self.n_jobs:
            raise ConfigurationError(
                f"job index {index} beyond stream length {self.n_jobs}"
            )
        return sum(self.gap_before(k) for k in range(index + 1))

    def job_at(self, index: int) -> Job:
        """Job ``index`` as a materialized :class:`~repro.core.Job`."""
        return Job(self.dag_at(index), self.release_of(index), _label(self.name, index))

    def prefix_instance(self, n_jobs: int) -> Instance:
        """The first ``n_jobs`` arrivals as a finite :class:`Instance`
        (the reference the streaming engine is property-tested against)."""
        if n_jobs < 1:
            raise ConfigurationError("n_jobs must be >= 1")
        if self.n_jobs is not None:
            n_jobs = min(n_jobs, self.n_jobs)
        jobs = []
        release = 0
        for k in range(n_jobs):
            release += self.gap_before(k)
            jobs.append(Job(self.dag_at(k), release, _label(self.name, k)))
        return Instance(jobs)


def stream_prefix_instance(source: ArrivalSource, n_jobs: int) -> Instance:
    """Materialize the first ``n_jobs`` arrivals of ``source``."""
    return source.prefix_instance(n_jobs)


#: DAG families a generated stream can draw per-job shapes from.
STREAM_FAMILIES = ("attachment", "galton-watson", "layered")


def _family_dag(family: str, n_nodes: int, rng: np.random.Generator) -> DAG:
    """One ~``n_nodes``-node DAG of the named family from ``rng``."""
    if family == "attachment":
        return random_attachment_tree(n_nodes, rng)
    if family == "galton-watson":
        return galton_watson_tree(n_nodes, rng)
    if family == "layered":
        width = max(1, int(np.sqrt(n_nodes)))
        widths = [width] * (n_nodes // width)
        if n_nodes % width:
            widths.append(n_nodes % width)
        return layered_tree(widths, rng)
    raise ConfigurationError(
        f"unknown stream family {family!r}; choose from {STREAM_FAMILIES}"
    )


class PoissonSource(ArrivalSource):
    """Poisson arrivals of random out-trees, as an index-pure stream.

    The streaming twin of :func:`poisson_instance`: i.i.d. exponential
    inter-arrival gaps with mean ``1 / rate`` rounded to integers. Job
    ``k``'s DAG and gap come from dedicated seed sequences
    ``(seed, tag, k)``, so both are pure functions of the index.
    """

    name = "poisson"

    def __init__(
        self,
        rate: float,
        seed: int = 0,
        *,
        dag_nodes: int = 64,
        family: str = "attachment",
        n_jobs: Optional[int] = None,
    ) -> None:
        if rate <= 0:
            raise ConfigurationError("rate must be positive")
        if seed < 0:
            raise ConfigurationError("seed must be >= 0 (np seed-sequence entry)")
        if dag_nodes < 1:
            raise ConfigurationError("dag_nodes must be >= 1")
        if family not in STREAM_FAMILIES:
            raise ConfigurationError(
                f"unknown stream family {family!r}; choose from {STREAM_FAMILIES}"
            )
        if n_jobs is not None and n_jobs < 1:
            raise ConfigurationError("n_jobs must be >= 1 (or None for unbounded)")
        self.rate = float(rate)
        self.seed = int(seed)
        self.dag_nodes = int(dag_nodes)
        self.family = family
        self.n_jobs = n_jobs

    def dag_at(self, index: int) -> DAG:
        rng = np.random.default_rng((self.seed, 1, index))
        return _family_dag(self.family, self.dag_nodes, rng)

    def gap_before(self, index: int) -> int:
        if index == 0:
            return 0
        rng = np.random.default_rng((self.seed, 2, index))
        return int(np.round(rng.exponential(1.0 / self.rate)))

    def fingerprint(self) -> str:
        return (
            f"poisson(rate={self.rate!r},seed={self.seed},"
            f"nodes={self.dag_nodes},family={self.family},n_jobs={self.n_jobs})"
        )


class TraceReplaySource(ArrivalSource):
    """Replay a recorded finite instance as a stream.

    Jobs must arrive in nondecreasing release order — guaranteed when
    built :meth:`from_instance` (``Instance`` sorts its jobs), checked
    otherwise.
    """

    name = "replay"

    def __init__(self, jobs: Sequence[Job]) -> None:
        if not jobs:
            raise ConfigurationError("need at least one job to replay")
        for earlier, later in zip(jobs, jobs[1:]):
            if later.release < earlier.release:
                raise ConfigurationError(
                    "replay jobs must be sorted by nondecreasing release"
                )
        self._jobs = tuple(jobs)
        self.n_jobs = len(self._jobs)
        self._fingerprint: Optional[str] = None

    @classmethod
    def from_instance(cls, instance: Instance) -> "TraceReplaySource":
        return cls(tuple(instance))

    def dag_at(self, index: int) -> DAG:
        return self._jobs[index].dag

    def gap_before(self, index: int) -> int:
        if index == 0:
            return self._jobs[0].release
        return self._jobs[index].release - self._jobs[index - 1].release

    def fingerprint(self) -> str:
        # The replayed jobs are an immutable tuple over read-only CSR
        # arrays, so the content hash is computed once per source rather
        # than on every snapshot.
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for job in self._jobs:
                digest.update(np.int64(job.release).tobytes())
                digest.update(np.int64(job.dag.n).tobytes())
                digest.update(np.ascontiguousarray(job.dag.child_indptr).tobytes())
                digest.update(np.ascontiguousarray(job.dag.child_indices).tobytes())
            self._fingerprint = (
                f"replay(n_jobs={self.n_jobs},sha={digest.hexdigest()[:16]})"
            )
        return self._fingerprint


class AdversarialDripSource(ArrivalSource):
    """A sustained drip of half-width packed rectangles.

    Each job is a ``⌈m/2⌉``-wide layered out-forest of depth ``depth``
    (solo optimum exactly ``depth``, the Section 4/6 building block),
    released every ``period`` steps. With ``period < depth`` the drip
    arrives faster than jobs finish, so the live window grows until the
    admission bound sheds — the deterministic overload workload for the
    streaming engine's shedding and watchdog paths.
    """

    name = "drip"

    def __init__(
        self,
        m: int,
        *,
        period: int,
        depth: Optional[int] = None,
        seed: int = 0,
        n_jobs: Optional[int] = None,
    ) -> None:
        if m < 2:
            raise ConfigurationError("m must be >= 2")
        if period < 1:
            raise ConfigurationError("period must be >= 1")
        if seed < 0:
            raise ConfigurationError("seed must be >= 0 (np seed-sequence entry)")
        if depth is not None and depth < 1:
            raise ConfigurationError("depth must be >= 1")
        if n_jobs is not None and n_jobs < 1:
            raise ConfigurationError("n_jobs must be >= 1 (or None for unbounded)")
        self.m = int(m)
        self.period = int(period)
        self.depth = int(depth) if depth is not None else 2 * self.period
        self.seed = int(seed)
        self.n_jobs = n_jobs

    def dag_at(self, index: int) -> DAG:
        rng = np.random.default_rng((self.seed, 3, index))
        width = max(1, self.m // 2)
        return layered_tree([width] * self.depth, rng)

    def gap_before(self, index: int) -> int:
        return 0 if index == 0 else self.period

    def fingerprint(self) -> str:
        return (
            f"drip(m={self.m},period={self.period},depth={self.depth},"
            f"seed={self.seed},n_jobs={self.n_jobs})"
        )
