"""Which operator each thread is running: the sampling profiler's
thread-ownership registry.

The runtime's hot path reads one flag, ``_ACTIVE``, per execution and
calls :func:`set_thread_owner` / :func:`clear_thread_owner` only while
a :class:`~repro.observe.profiler.SamplingProfiler` samples.  They live
apart from the profiler so that a job nobody profiles does not import
it.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional


class _Owner:
    """Per-thread ownership slot: current operator label + native tid.

    The native id is cached on first registration so the steady-state
    hot path never repeats the ``gettid`` syscall.
    """

    __slots__ = ("label", "native_id")

    def __init__(self, label: Optional[str], native_id: Optional[int]) -> None:
        self.label = label
        self.native_id = native_id


#: True while at least one profiler is sampling.  The runtime tests this
#: before calling the ownership hooks, so a dormant profiler costs one
#: attribute lookup per execute.
_ACTIVE: bool = False
_ACTIVE_COUNT = 0
#: ident -> _Owner.  Mutated GIL-atomically (dict get/set on the owning
#: thread, list() iteration on the sampler) — no lock on the hot path.
_OWNERS: Dict[int, _Owner] = {}


def set_thread_owner(label: str) -> None:
    """Attribute the calling thread's samples to operator ``label``."""
    ident = threading.get_ident()
    owner = _OWNERS.get(ident)
    if owner is None:
        _OWNERS[ident] = _Owner(label, threading.get_native_id())
    else:
        owner.label = label


def clear_thread_owner() -> None:
    """The calling thread left operator code (back to runtime work)."""
    owner = _OWNERS.get(threading.get_ident())
    if owner is not None:
        owner.label = None


def _activate() -> None:
    global _ACTIVE, _ACTIVE_COUNT
    _ACTIVE_COUNT += 1
    _ACTIVE = True


def _deactivate() -> None:
    global _ACTIVE, _ACTIVE_COUNT
    _ACTIVE_COUNT = max(0, _ACTIVE_COUNT - 1)
    if _ACTIVE_COUNT == 0:
        _ACTIVE = False
        _OWNERS.clear()
