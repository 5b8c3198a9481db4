"""Seeded, deterministic fault plans.

A :class:`FaultPlan` answers one question: *when the injector is asked
for the n-th time at hook point `site`, what fault (if any) fires?*

Determinism is the whole point.  The decision for ``(site, index)``
depends only on the plan — never on wall-clock time, thread
interleaving, or Python's randomized string hashing — so two runs with
the same seed produce byte-identical fault traces.  Randomness is
derived per decision from :func:`repro.lz4.xxh32` over
``f"{site}:{index}"`` with the plan seed, which is stable across
processes and Python versions (unlike ``hash()``).

Two authoring styles compose:

- **Rate-based** (:class:`FaultRates`): each action fires independently
  with a given probability per interception — the soak/chaos mode.
- **Scripted** (:class:`ScriptedFault`): an explicit ``(site, index)``
  → action table — the surgical mode used by regression tests
  ("kill the connection exactly at frame 5").

Scripted entries take precedence over rates at the same ``(site,
index)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.lz4 import xxh32


class FaultAction:
    """Namespace of fault action identifiers (stable trace vocabulary)."""

    DROP = "drop"                        # discard the payload silently
    DELAY = "delay"                      # stall the hook for `param` seconds
    DUPLICATE = "duplicate"              # deliver the payload twice
    TRUNCATE = "truncate"                # deliver a `param` fraction, then kill
    BITFLIP = "bitflip"                  # flip one bit of the payload
    KILL_CONNECTION = "kill_connection"  # sever the socket mid-stream
    KILL_NODE = "kill_node"              # crash a node / operator instance
    PARTITION = "partition"              # sever a simulated link
    HEAL = "heal"                        # restore a simulated link

    ALL = (
        DROP,
        DELAY,
        DUPLICATE,
        TRUNCATE,
        BITFLIP,
        KILL_CONNECTION,
        KILL_NODE,
        PARTITION,
        HEAL,
    )


@dataclass(frozen=True)
class FaultDecision:
    """One resolved injection decision at a hook point."""

    site: str
    index: int
    action: str
    #: Action-specific parameter: delay seconds, truncate fraction,
    #: bit position for bitflip.  0.0 when unused.
    param: float = 0.0


#: Mean injected delay in seconds when a ``delay`` fault fires.
DELAY_SECONDS = 0.005


@dataclass(frozen=True)
class FaultRates:
    """Independent per-interception fire probabilities for one site.

    Probabilities are evaluated in the declared order below; the first
    action that fires wins (at most one fault per interception, which
    keeps traces readable and recovery behaviour analyzable).
    """

    drop: float = 0.0
    delay: float = 0.0
    duplicate: float = 0.0
    truncate: float = 0.0
    bitflip: float = 0.0
    kill_connection: float = 0.0
    kill_node: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            p = getattr(self, f.name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{f.name} must be a probability in [0, 1]: {p}")

    def _ordered(self) -> tuple[tuple[str, float], ...]:
        return (
            (FaultAction.KILL_CONNECTION, self.kill_connection),
            (FaultAction.KILL_NODE, self.kill_node),
            (FaultAction.BITFLIP, self.bitflip),
            (FaultAction.TRUNCATE, self.truncate),
            (FaultAction.DUPLICATE, self.duplicate),
            (FaultAction.DROP, self.drop),
            (FaultAction.DELAY, self.delay),
        )


@dataclass(frozen=True)
class ScriptedFault:
    """An explicit fault at an exact ``(site, index)`` interception."""

    site: str
    index: int
    action: str
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in FaultAction.ALL:
            raise ValueError(
                f"unknown action {self.action!r}; expected one of {FaultAction.ALL}"
            )
        if self.index < 0:
            raise ValueError(f"index must be >= 0: {self.index}")


# Derivation domains keep the uniform draw for "does it fire" and the
# draw for "with which parameter" independent.
_FIRE_DOMAIN = 0
_PARAM_DOMAIN = 1


def _uniform(seed: int, site: str, index: int, domain: int) -> float:
    """Deterministic uniform draw in [0, 1) for one decision."""
    h = xxh32(f"{site}:{index}:{domain}".encode(), seed=seed & 0xFFFFFFFF)
    return h / 4294967296.0


@dataclass
class FaultPlan:
    """Deterministic mapping from ``(site, index)`` to fault decisions.

    Parameters
    ----------
    seed:
        Scenario seed; the single knob that must be recorded to
        reproduce a run.
    rates:
        Per-site :class:`FaultRates` (sites absent from the dict never
        fire probabilistically).
    script:
        Explicit :class:`ScriptedFault` entries; they override rates at
        their exact ``(site, index)``.
    """

    seed: int = 0
    rates: dict[str, FaultRates] = field(default_factory=dict)
    script: list[ScriptedFault] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._scripted: dict[tuple[str, int], ScriptedFault] = {
            (s.site, s.index): s for s in self.script
        }

    # -- authoring ---------------------------------------------------------
    def at(self, site: str, index: int, action: str, param: float = 0.0) -> "FaultPlan":
        """Add one scripted fault; returns self for chaining."""
        entry = ScriptedFault(site, index, action, param)
        self.script.append(entry)
        self._scripted[(site, index)] = entry
        return self

    def with_rates(self, site: str, rates: FaultRates) -> "FaultPlan":
        """Attach probabilistic rates to a site; returns self."""
        self.rates[site] = rates
        return self

    # -- evaluation --------------------------------------------------------
    def decide(self, site: str, index: int) -> FaultDecision | None:
        """The fault (if any) for the ``index``-th interception at ``site``."""
        scripted = self._scripted.get((site, index))
        if scripted is not None:
            return FaultDecision(site, index, scripted.action, scripted.param)
        rates = self.rates.get(site)
        if rates is None:
            return None
        u = _uniform(self.seed, site, index, _FIRE_DOMAIN)
        cumulative = 0.0
        for action, p in rates._ordered():
            cumulative += p
            if u < cumulative:
                return FaultDecision(site, index, action, self._param(site, index, action, rates))
        return None

    def _param(self, site: str, index: int, action: str, rates: FaultRates) -> float:
        v = _uniform(self.seed, site, index, _PARAM_DOMAIN)
        if action == FaultAction.DELAY:
            # 0.5x–1.5x the configured mean: bounded, never pathological.
            return DELAY_SECONDS * (0.5 + v)
        if action == FaultAction.TRUNCATE:
            # Keep a strictly partial prefix.
            return 0.1 + 0.8 * v
        if action == FaultAction.BITFLIP:
            # Fractional position within the payload; the injector maps
            # it onto a concrete bit offset.
            return v
        return 0.0

    def describe(self) -> str:
        """One-line human summary (seed + sites)."""
        sites = sorted(set(self.rates) | {s.site for s in self.script})
        return f"FaultPlan(seed={self.seed}, sites={sites}, scripted={len(self.script)})"
