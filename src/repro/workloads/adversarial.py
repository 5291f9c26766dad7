"""The Section 4 lower-bound family: adaptive adversarial out-trees.

Construction (paper, Section 4): job ``J_i`` is released at time
``i(m+1)``; each job has ``m`` layers. Layer ``ℓ`` contains one *key*
subjob — the parent of every subjob on layer ``ℓ+1`` — plus some leaf
subjobs. The adversary fixes layer ``ℓ``'s size *adaptively*: at the first
time FIFO schedules from layer ``ℓ`` with ``f`` processors still available,
the layer has ``f + 1`` subjobs and the key is the one FIFO leaves behind.
Arbitrary FIFO then pays ≈ ``(m+1)`` time units per *sublayer* instead of
per layer, while OPT finishes every job within ``m + 1`` time units of its
release — Theorem 4.2 gives a competitive ratio of at least
``lg m − lg lg m``.

Shape note: the paper's construction leaves layer-1 subjobs parentless, so
each frozen job is an out-*forest* — one out-tree hanging off layer 1's key
plus single-node out-trees (the layer-1 leaves). This is the same class the
theorem addresses: an out-forest job is indistinguishable from several
out-tree jobs released at the same instant (Section 5.3 performs exactly
that merge in the other direction).

This module co-simulates deterministic arbitrary FIFO (ascending node id;
keys receive the largest id of their layer) against the lazy adversary,
then *freezes* the instance. Since a layer's size is fixed when FIFO first
touches it, the co-simulation works one layer at a time: at each step a
job either waits for its next layer or has its key as its only ready
subjob, so a step is one walk over the live jobs, not over their subjobs.
The frozen instance replays bit-identically through the general engine
with :class:`~repro.schedulers.base.ArbitraryTieBreak` (an integration test
asserts this), and ships with an explicit OPT witness schedule achieving
maximum flow at most ``m + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dag import DAG
from ..core.exceptions import ConfigurationError
from ..core.instance import Instance
from ..core.job import Job
from ..core.schedule import Schedule
from ..core.util import as_index
from .cache import cached_generator

__all__ = ["AdversarialResult", "build_fifo_adversary"]

_INT = np.int64


@dataclass(frozen=True)
class AdversarialResult:
    """Output of the adversary co-simulation.

    Attributes
    ----------
    instance:
        The frozen concrete instance (one out-forest per release).
    fifo_schedule:
        The schedule arbitrary FIFO produced during the co-simulation.
    opt_witness:
        A feasible schedule with maximum flow at most ``period`` (the
        paper's witness: key of layer ℓ at time ``r_i + ℓ``, leaves greedily
        around it). Built only in the paper's setting: release windows
        are disjoint (``period >= m + 1``) and jobs have at most ``m``
        layers; ``None`` otherwise.
    m:
        Number of processors the family was built for.
    period:
        Release spacing (the paper uses ``m + 1``).
    """

    instance: Instance
    fifo_schedule: Schedule
    opt_witness: Schedule | None
    m: int
    period: int

    @property
    def fifo_max_flow(self) -> int:
        return self.fifo_schedule.max_flow

    @property
    def opt_upper_bound(self) -> int:
        """Witness objective — an upper bound on OPT (≤ m + 1 in the
        paper's ``period = m + 1`` setting). Raises when no witness exists
        (overloaded periods, or more than ``m`` layers); use
        :attr:`opt_lower_bound` there."""
        if self.opt_witness is None:
            raise ConfigurationError(
                f"no OPT witness (it needs period >= m+1 = {self.m + 1} and "
                f"at most m layers; period={self.period}); use opt_lower_bound"
            )
        return self.opt_witness.max_flow

    @property
    def opt_lower_bound(self) -> int:
        """A provable lower bound on OPT (always available)."""
        from ..schedulers.offline import max_flow_lower_bound

        return max_flow_lower_bound(self.instance, self.m)

    @property
    def ratio_lower_bound(self) -> float:
        """A certified lower bound on FIFO's competitive ratio (requires
        the witness)."""
        return self.fifo_max_flow / self.opt_upper_bound


@cached_generator(
    safe=lambda a: a.get("key_placement") != "random"
    or isinstance(a.get("seed"), int)
)
def build_fifo_adversary(
    m: int,
    n_jobs: int,
    *,
    n_layers: int | None = None,
    period: int | None = None,
    key_placement: str = "last",
    seed=None,
    max_steps: int | None = None,
) -> AdversarialResult:
    """Run the Section 4 adversary against arbitrary FIFO on ``m``
    processors and freeze the resulting instance.

    ``m``, ``n_jobs``, ``n_layers`` and ``period`` must be integers (NumPy
    integers included); anything else raises :class:`ConfigurationError`
    naming the argument.

    Parameters
    ----------
    m:
        Number of processors (>= 2).
    n_jobs:
        Number of released jobs. The paper's Theorem 4.2 argument uses
        ``2 m lg m`` jobs; the ratio typically saturates much sooner.
    n_layers:
        Layers per job (default ``m``, as in the paper). With more than
        ``m`` layers the witness's leaves can overflow their window, so
        none is built (``opt_witness`` is ``None``).
    period:
        Release spacing (default ``m + 1``, as in the paper). Smaller
        periods probe regimes the paper's analysis does not cover; the
        adversary still adapts (layer sizes track FIFO's free capacity),
        but the OPT witness only exists for ``period >= m + 1``.
    key_placement:
        Which local id within each layer is designated the key —
        ``"last"`` (largest id; the placement that defeats ascending-id
        FIFO), ``"first"`` (defeats descending-id FIFO) or ``"random"``.
        The co-simulated *trace* is identical for every placement (layer
        subjobs are indistinguishable to a non-clairvoyant scheduler at
        first touch — this is why the lower bound extends to every
        non-clairvoyant FIFO tie-break, randomized included); only the
        frozen instance's labeling changes. E17 builds on this.
    seed:
        RNG for ``key_placement="random"``.
    max_steps:
        Safety cap on simulated time (default generous).
    """
    m = as_index(m, "m")
    n_jobs = as_index(n_jobs, "n_jobs")
    if m < 2:
        raise ConfigurationError("the adversarial family needs m >= 2")
    if n_jobs < 1:
        raise ConfigurationError("n_jobs must be >= 1")
    layers = m if n_layers is None else as_index(n_layers, "n_layers")
    if layers < 1:
        raise ConfigurationError("n_layers must be >= 1")
    period = m + 1 if period is None else as_index(period, "period")
    if period < 1:
        raise ConfigurationError("period must be >= 1")
    if key_placement not in ("last", "first", "random"):
        raise ConfigurationError(
            "key_placement must be 'last', 'first' or 'random'"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    releases = [i * period for i in range(n_jobs)]
    if max_steps is None:
        # Theorem 4.2's argument unfolds within O(n_jobs * (m+1) * log m)
        # time; pad generously.
        max_steps = (n_jobs + 4 * layers + 8) * period * 4 + 64

    # One cell per (job, layer), at ``job * layers + layer``: the layer's
    # size, its key's position within it, and the steps at which its leaves
    # and its key ran.
    n_cells = n_jobs * layers
    size = [0] * n_cells
    key_pos = [0] * n_cells
    leaf_step = [0] * n_cells
    key_step = [0] * n_cells
    # A job's current cell: its pending layer, or the layer whose key is
    # its only ready subjob (``key_ready``). FIFO orders a job's key after
    # its other ready subjobs, so the step that runs a key has also run
    # every other ready subjob of that job.
    cell = [j * layers for j in range(n_jobs)]
    key_ready = [False] * n_jobs
    alive: list[int] = []  # released-and-unfinished jobs, arrival order
    next_release = 0
    t = 0
    while next_release < n_jobs or alive:
        if t > max_steps:
            raise ConfigurationError(
                f"adversary co-simulation exceeded {max_steps} steps"
            )
        while next_release < n_jobs and releases[next_release] == t:
            alive.append(next_release)
            next_release += 1
        if not alive:
            t = releases[next_release]
            continue
        # Co-simulate one FIFO step: oldest job first, every ready key takes
        # a processor, and the first pending layer takes all ``f`` that are
        # left. The adversary fixes that layer's size now (f + 1), so its f
        # leaves run and the key, ordered last, is left behind.
        capacity = m
        finished = False
        for j in alive:
            c = cell[j]
            if key_ready[j]:
                key_step[c] = t
                key_ready[j] = False
                cell[j] = c = c + 1
                finished |= c == (j + 1) * layers
                capacity -= 1
                if not capacity:
                    break
            else:
                size[c] = capacity + 1
                if key_placement == "last":
                    key_pos[c] = capacity
                elif key_placement == "random":
                    key_pos[c] = int(rng.integers(0, capacity + 1))
                # "first" keeps position 0.
                leaf_step[c] = t
                key_ready[j] = True
                break
        if finished:
            alive = [j for j in alive if cell[j] < (j + 1) * layers]
        t += 1

    shape = (n_jobs, layers)
    return _freeze(
        m,
        period,
        np.array(size, dtype=_INT).reshape(shape),
        np.array(key_pos, dtype=_INT).reshape(shape),
        np.array(leaf_step, dtype=_INT).reshape(shape),
        np.array(key_step, dtype=_INT).reshape(shape),
    )


def _freeze(
    m: int,
    period: int,
    size: np.ndarray,
    key_pos: np.ndarray,
    leaf_step: np.ndarray,
    key_step: np.ndarray,
) -> AdversarialResult:
    """Materialize the co-simulated layers into concrete objects.

    The four ``(n_jobs, n_layers)`` arrays hold each layer's size, its
    key's position within the layer, and the steps at which its leaves and
    its key ran. Layer ``d`` of a job takes the next ``size[d]`` local ids.
    """
    n_jobs, layers = size.shape
    sizes = size.ravel()
    # Global ids of each layer's first subjob and of its key; each job's
    # subjobs are one id range, split at ``bounds``.
    layer_start = np.cumsum(sizes) - sizes
    job_start = layer_start[::layers]
    bounds = np.append(job_start, sizes.sum())[1:-1]
    keys = layer_start.reshape(size.shape) + key_pos
    # Layer 0 is parentless; every other layer hangs off the previous key.
    parent = np.full(size.shape, -1, dtype=_INT)
    parent[:, 1:] = keys[:, :-1] - job_start[:, None]
    parents = np.split(np.repeat(parent.ravel(), sizes), bounds)
    releases = np.arange(n_jobs, dtype=_INT) * period
    jobs = [
        Job(DAG.from_parents(p), int(r), label=f"adv{idx}")
        for idx, (p, r) in enumerate(zip(parents, releases.tolist()))
    ]
    instance = Instance(jobs)
    fifo = np.repeat(leaf_step.ravel() + 1, sizes)
    fifo[keys.ravel()] = key_step.ravel() + 1
    fifo_schedule = Schedule(instance, m, np.split(fifo, bounds))
    fifo_schedule.validate()
    witness = None
    if period >= m + 1 and layers <= m:
        witness_flat = _opt_witness(size, key_pos, releases, m)
        witness = Schedule(instance, m, np.split(witness_flat, bounds))
        witness.validate()
    return AdversarialResult(instance, fifo_schedule, witness, m, period)


def _opt_witness(
    size: np.ndarray, key_pos: np.ndarray, releases: np.ndarray, m: int
) -> np.ndarray:
    """The paper's OPT witness, as one completion array over every job's
    subjobs in id order.

    Each job runs its key chain one subjob per step from its release: the
    key of layer ``d`` (1-based) completes at ``r + d``. At the deepest
    layer that "key" is the layer's largest id. Leaves fill the free
    processors greedily in ascending id, from the step of their own
    layer's key on; the job's ``m + 1``-step window is its own, as windows
    of consecutive jobs are disjoint.

    With at most ``m`` layers the packing has a closed form. Let ``s`` be
    the number of earlier leaves spilled into the step of layer ``d``'s
    key. Then ``m - s - 1`` of its leaves fit in that step, and the rest
    spill into the next one, so ``s' = max(0, s + size_d - m)``. By
    induction ``s <= d - 1``, so a key always fits, and the last spill
    lands at step ``r + m + 1`` at the latest, inside the window.
    """
    n_jobs, layers = size.shape
    sizes = size.ravel()
    # s for every layer (a Lindley recursion, as a running minimum).
    load = np.zeros((n_jobs, layers), dtype=_INT)
    np.cumsum(size[:, :-1] - m, axis=1, out=load[:, 1:])
    spill = load - np.minimum.accumulate(load, axis=1)
    fit = m - spill - 1  # leaves that fit beside the key
    witness_key = key_pos.copy()
    witness_key[:, -1] = size[:, -1] - 1
    # Position of the first leaf that spills, skipping the key.
    first_spill = fit + (fit >= witness_key)
    base = releases[:, None] + np.arange(1, layers + 1, dtype=_INT)
    layer_start = np.cumsum(sizes) - sizes
    pos = np.arange(sizes.sum(), dtype=_INT) - np.repeat(layer_start, sizes)
    spilled = (pos >= np.repeat(first_spill.ravel(), sizes)) & (
        pos != np.repeat(witness_key.ravel(), sizes)
    )
    return np.repeat(base.ravel(), sizes) + spilled
