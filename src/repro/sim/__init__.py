"""Discrete-event simulation kernel used by every ``repro`` subsystem."""

from .engine import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    all_of,
    any_of,
)
from .queues import Store, StoreFull
from .resources import Resource
from .rng import Rng
from .stats import RateMeter, Summary, TimeSeries, percentile
from . import units

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "all_of",
    "any_of",
    "Store",
    "StoreFull",
    "Resource",
    "Rng",
    "RateMeter",
    "Summary",
    "TimeSeries",
    "percentile",
    "units",
]
