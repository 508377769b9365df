"""Simulated storage substrate: extents, cost model, virtual disk."""

from repro.storage.disk import DiskStats, SimulatedDisk
from repro.storage.extent import Extent, ExtentAllocator
from repro.storage.iomodel import ReadPricer

__all__ = [
    "DiskStats",
    "Extent",
    "ExtentAllocator",
    "ReadPricer",
    "SimulatedDisk",
]
