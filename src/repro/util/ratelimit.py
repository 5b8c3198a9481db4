"""Token-bucket rate limiting.

:class:`~repro.workloads.stdlib.ThrottledSource` paces a wrapped
source with a :class:`TokenBucket`: one token per scheduling quantum.
"""

from __future__ import annotations

from repro.util.clock import Clock, SYSTEM_CLOCK


class TokenBucket:
    """Classic token bucket.

    Parameters
    ----------
    rate:
        Sustained token refill rate (tokens/second).  Must be positive.
    burst:
        Bucket capacity: the largest instantaneous burst permitted.
        Defaults to one second's worth of tokens.
    clock:
        Time source; injectable for deterministic tests.
    """

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else float(rate)
        if self.burst <= 0:
            raise ValueError(f"burst must be positive, got {burst}")
        self._clock = clock
        self._tokens = self.burst
        self._last = clock.now()

    def _refill(self) -> None:
        now = self._clock.now()
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._last = now

    # Tolerance absorbing float rounding in refill arithmetic; without it,
    # `acquire` can spin forever when elapsed*rate rounds a hair below the
    # deficit and the follow-up delay underflows to ~0.
    _EPS = 1e-9

    def acquire(self) -> float:
        """Block until a token is available, take it; return seconds waited."""
        waited = 0.0
        while True:
            self._refill()
            if self._tokens >= 1.0 - self._EPS:
                self._tokens = max(0.0, self._tokens - 1.0)
                return waited
            delay = max((1.0 - self._tokens) / self.rate, 1e-6)
            self._clock.sleep(delay)
            waited += delay
