"""Synthetic nine-gas DGA decision tables with a binary fault label.

Gas concentrations are drawn log-normally around per-class median levels.
A shared latent severity factor correlates the gases within each object, so
discretized condition vectors recur often enough for exact-match rules to
generalize. The seven fault gases sit at elevated levels under fault;
nitrogen and oxygen are class-independent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .data import DecisionTable, _integer, _is_real

__all__ = [
    "FAULT_GASES",
    "GAS_NAMES",
    "GasDistribution",
    "GasProfile",
    "default_profile",
    "generate",
    "load_profile",
    "profile_from_json",
    "profile_to_json",
]

GAS_NAMES = ("h2", "ch4", "c2h4", "c2h6", "c2h2", "co", "co2", "n2", "o2")
FAULT_GASES = GAS_NAMES[:7]
MIN_OBJECTS = 10

# Bounded class-label redraws before generate() gives up on a two-class table.
MAX_CLASS_DRAWS = 100


@dataclass(frozen=True)
class GasDistribution:
    """Log-normal parameters for one gas: median ppm and log-scale spread per class."""

    healthy_location: float
    healthy_spread: float
    faulty_location: float
    faulty_spread: float

    def __post_init__(self):
        for value in (
            self.healthy_location,
            self.healthy_spread,
            self.faulty_location,
            self.faulty_spread,
        ):
            if not value > 0:
                raise ValueError("location and spread parameters must be positive")


@dataclass(frozen=True)
class GasProfile:
    """Per-gas distributions plus the fault rate and inter-gas correlation."""

    gases: dict[str, GasDistribution]
    fault_fraction: float
    latent_weight: float

    def __post_init__(self):
        if tuple(self.gases) != GAS_NAMES:
            raise ValueError(f"profile must define exactly the gases {GAS_NAMES} in order")
        if not 0.0 < self.fault_fraction < 1.0:
            raise ValueError("fault_fraction must lie in (0, 1)")
        if not 0.0 <= self.latent_weight < 1.0:
            raise ValueError("latent_weight must lie in [0, 1)")


def _number(payload, *path: str) -> float:
    """The number at ``path`` in a profile's JSON; ValueError naming the field if absent or malformed."""
    node = payload
    for depth, key in enumerate(path):
        if not isinstance(node, dict) or key not in node:
            raise ValueError(f"profile field {'.'.join(path[:depth + 1])} is missing")
        node = node[key]
    if not _is_real(node):  # as given: "0.3" is not parsed
        raise ValueError(f"profile field {'.'.join(path)} is not a number: {node!r}")
    return float(node)


def profile_from_json(payload: dict) -> GasProfile:
    """Rebuild a profile from its JSON form; a missing or malformed field raises ValueError naming it."""
    gases = {
        name: GasDistribution(*(_number(payload, "gases", name, state, parameter)
                                for state in ("healthy", "faulty")
                                for parameter in ("location", "spread")))
        for name in GAS_NAMES
    }
    return GasProfile(gases, _number(payload, "fault_fraction"), _number(payload, "latent_weight"))


def profile_to_json(profile: GasProfile) -> dict:
    return {
        "fault_fraction": profile.fault_fraction,
        "latent_weight": profile.latent_weight,
        "gases": {
            name: {
                "healthy": {"location": d.healthy_location, "spread": d.healthy_spread},
                "faulty": {"location": d.faulty_location, "spread": d.faulty_spread},
            }
            for name, d in profile.gases.items()
        },
    }


def load_profile(path: str | Path) -> GasProfile:
    with open(path, encoding="utf-8") as fh:
        return profile_from_json(json.load(fh))


def default_profile() -> GasProfile:
    """The calibrated profile shipped with the package."""
    text = resources.files("roughcut").joinpath("profiles/default_dga.json").read_text("utf-8")
    return profile_from_json(json.loads(text))


def generate(profile: GasProfile, n: int, seed: int) -> DecisionTable:
    """Draw n objects: class by fault_fraction, gases log-normal given the class.

    Each object gets one latent severity draw shared (weighted by
    latent_weight) across all gases. Deterministic per seed.
    """
    n, seed = _integer(n, "n"), _integer(seed, "seed")
    if n < MIN_OBJECTS:
        raise ValueError(f"n must be at least {MIN_OBJECTS}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_CLASS_DRAWS):  # a training table needs both classes
        decisions = (rng.random(n) < profile.fault_fraction).astype(np.int64)
        if 0 < decisions.sum() < n:
            break
    else:
        raise ValueError(f"no draw of {n} labels held both classes in {MAX_CLASS_DRAWS} tries")

    shared = rng.standard_normal(n)
    mix = profile.latent_weight
    noise_weight = math.sqrt(1.0 - mix * mix)
    faulty = decisions == 1

    values = np.empty((n, len(GAS_NAMES)))
    for g, name in enumerate(GAS_NAMES):
        dist = profile.gases[name]
        z = mix * shared + noise_weight * rng.standard_normal(n)
        location = np.where(faulty, dist.faulty_location, dist.healthy_location)
        spread = np.where(faulty, dist.faulty_spread, dist.healthy_spread)
        values[:, g] = location * np.exp(spread * z)
    return DecisionTable(GAS_NAMES, values, decisions)
