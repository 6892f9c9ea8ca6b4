"""Discrete-event simulation kernel (clock, processes, resources, RNG)."""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    ms,
    sec,
    us,
)
from .resources import Container, Resource
from .rng import LatencySampler, StreamFactory

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Event",
    "LatencySampler",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "StreamFactory",
    "Timeout",
    "ms",
    "sec",
    "us",
]
