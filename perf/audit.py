"""The one auditor every trial's output goes through.

The sink hands it each arrival as ``(key, index, value)`` in arrival
order: the link (relays) or the sensor (``sensor_keyed``), the
position the sender gave it (``seq`` or window number), and the payload.
It is checked against what the generator offered: every index of every
key exactly once, in order per key, with an equal payload.  Counts are
in units of source packets, so a ``sensor_keyed`` summary weighs one
window.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence


@dataclass
class AuditResult:
    attempted: int = 0
    delivered: int = 0
    lost: int = 0
    duplicated: int = 0
    reordered: int = 0
    corrupted: int = 0

    @property
    def failed(self) -> int:
        return self.lost + self.duplicated + self.reordered + self.corrupted

    def as_dict(self) -> dict:
        return {**asdict(self), "failed": self.failed}


def summaries_equal(expected: tuple[int, float], got: tuple[int, float]) -> bool:
    """A ``sensor_keyed`` summary matches the reference fold: count
    exactly, mean to 1e-9 relative."""
    return expected[0] == got[0] and math.isclose(
        expected[1], got[1], rel_tol=1e-9, abs_tol=0.0
    )


def audit(
    expected: Mapping[Hashable, Sequence[Any]],
    arrivals: Iterable[tuple[Hashable, int, Any]],
    weight: int = 1,
    equal: Callable[[Any, Any], bool] = lambda a, b: a == b,
) -> AuditResult:
    """Compare ``arrivals`` with ``expected[key][index]``.

    An arrival nobody offered counts as corrupted; a second copy as
    duplicated; one whose index is below an earlier arrival's on the
    same key as reordered; what never arrives as lost.
    """
    result = AuditResult(attempted=weight * sum(len(v) for v in expected.values()))
    seen: dict[Hashable, set[int]] = {key: set() for key in expected}
    highest: dict[Hashable, int] = {}
    for key, index, value in arrivals:
        offered = expected.get(key)
        if offered is None or not 0 <= index < len(offered):
            result.corrupted += weight
            continue
        if index in seen[key]:
            result.duplicated += weight
            continue
        seen[key].add(index)
        result.delivered += weight
        if index < highest.get(key, -1):
            result.reordered += weight
        else:
            highest[key] = index
        if not equal(offered[index], value):
            result.corrupted += weight
    result.lost = weight * sum(len(v) - len(seen[k]) for k, v in expected.items())
    return result
