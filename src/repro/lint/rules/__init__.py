"""Built-in rule packs; importing this module registers every rule."""

from __future__ import annotations

from . import (
    contracts,
    determinism,
    engine_safety,
    failure_paths,
    kernel_discipline,
    picklability,
    streaming,
)

__all__ = [
    "contracts",
    "determinism",
    "engine_safety",
    "failure_paths",
    "kernel_discipline",
    "picklability",
    "streaming",
]
