"""Workload generation: YCSB distributions and the paper's RangeHot."""

from repro.workload.distributions import (
    ExponentialSizeChooser,
    KeyChooser,
    LatestChooser,
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
)
from repro.workload.ycsb import (
    Operation,
    OpKind,
    RangeHotWorkload,
    YCSBWorkload,
    ycsb_core_workload,
)

__all__ = [
    "ExponentialSizeChooser",
    "KeyChooser",
    "LatestChooser",
    "Operation",
    "OpKind",
    "RangeHotWorkload",
    "ScrambledZipfianChooser",
    "UniformChooser",
    "YCSBWorkload",
    "ZipfianChooser",
    "ycsb_core_workload",
]
