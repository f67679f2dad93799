"""Tilt observer for ball-joint mounted robots, with simulation and
stability-analysis tooling."""

from .observer import ObserverGains, make_gains, run_observer

__all__ = ["ObserverGains", "make_gains", "run_observer"]
__version__ = "0.1.0"
