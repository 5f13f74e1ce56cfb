"""The two-level memory machine substrate.

This subpackage implements the paper's machine model (Section 3): a fast
memory of capacity ``S`` elements under explicit program control, an
unbounded slow memory, and exact accounting of every element transferred
between them.  It is the measurement instrument for the whole reproduction:
`I/O volume` in this model is a deterministic count, so the simulator
reproduces the paper's quantities exactly rather than approximately.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Region": "regions",
    "tile_region": "regions",
    "triangle_block_region": "regions",
    "lower_tile_region": "regions",
    "column_segment_region": "regions",
    "row_segment_region": "regions",
    "merge_regions": "regions",
    "SlowMemory": "slow_memory",
    "FastMemory": "fast_memory",
    "IOStats": "tracker",
    "TwoLevelMachine": "machine",
    "LRUPebbleMachine": "pebble",
    "ExplicitPebbleMachine": "pebble",
})
