"""Box-shaped continuous spaces for actions, observations and states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ContinuousSpace:
    """An axis-aligned box ``low[i] <= x[i] <= high[i]``."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        low = np.asarray(self.low, dtype=float)
        high = np.asarray(self.high, dtype=float)
        if low.ndim != 1 or high.ndim != 1 or low.shape != high.shape:
            raise ValueError("low/high must be 1-D arrays of equal length")
        if np.any(low > high):
            raise ValueError("low must not exceed high componentwise")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        # plain-float copies for ``contains``, which runs twice per env step
        object.__setattr__(self, "_bounds", tuple(zip(low.tolist(), high.tolist())))

    @property
    def dim(self) -> int:
        return self.low.size

    def contains(self, x: np.ndarray, tol: float = 0.0) -> bool:
        """True iff ``x`` has the box's shape, is finite, and lies within
        ``tol`` of the box.  NaN and +-inf are rejected even against
        infinite bounds."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.low.shape:
            return False
        for v, (lo, hi) in zip(x.tolist(), self._bounds):
            # v - v is 0.0 for finite v and NaN for NaN and +-inf
            if not (lo - tol <= v <= hi + tol and v - v == 0.0):
                return False
        return True

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high)

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.low, self.high)
