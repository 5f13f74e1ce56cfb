"""The two-level memory machine substrate.

This subpackage implements the paper's machine model (Section 3): a fast
memory of capacity ``S`` elements under explicit program control, an
unbounded slow memory, and exact accounting of every element transferred
between them.  It is the measurement instrument for the whole reproduction:
`I/O volume` in this model is a deterministic count, so the simulator
reproduces the paper's quantities exactly rather than approximately.
"""

from .regions import (
    Region,
    tile_region,
    triangle_block_region,
    lower_tile_region,
    column_segment_region,
    row_segment_region,
    merge_regions,
)
from .slow_memory import SlowMemory
from .fast_memory import FastMemory
from .tracker import IOStats
from .machine import TwoLevelMachine
from .pebble import LRUPebbleMachine, ExplicitPebbleMachine

__all__ = [
    "Region",
    "tile_region",
    "triangle_block_region",
    "lower_tile_region",
    "column_segment_region",
    "row_segment_region",
    "merge_regions",
    "SlowMemory",
    "FastMemory",
    "IOStats",
    "TwoLevelMachine",
    "LRUPebbleMachine",
    "ExplicitPebbleMachine",
]
