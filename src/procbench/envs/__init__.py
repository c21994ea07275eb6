"""Environment registry."""

from __future__ import annotations

from .atropine import AtropineEnv
from .base import ProcessEnv, StepResult, validate_episode_config
from .beer import BeerEnv
from .mab.env import MabEnv
from .pensim import PenSimEnv
from .reactor import ReactorEnv

ENVIRONMENTS: dict[str, type[ProcessEnv]] = {
    "reactor": ReactorEnv,
    "atropine": AtropineEnv,
    "mab": MabEnv,
    "pensim": PenSimEnv,
    "beer": BeerEnv,
}


def make_env(name: str, config: dict | None = None) -> ProcessEnv:
    try:
        cls = ENVIRONMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown environment {name!r}; choose from {sorted(ENVIRONMENTS)}"
        ) from None
    return cls(config)


__all__ = [
    "ENVIRONMENTS",
    "make_env",
    "ProcessEnv",
    "StepResult",
    "validate_episode_config",
    "ReactorEnv",
    "AtropineEnv",
    "MabEnv",
    "PenSimEnv",
    "BeerEnv",
]
