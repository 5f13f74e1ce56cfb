"""ASCII renderers for the paper's structural figures (1, 2 and 3)."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CharGrid": "ascii",
    "render_zones_and_blocks": "figures",
    "render_indexing_positions": "figures",
    "render_tbs_layout": "figures",
    "render_lbc_iteration": "figures",
})
