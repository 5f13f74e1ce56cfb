"""Shared low-level utilities: primes/coprimality, index intervals, seeded
matrix generators, ASCII table formatting, and argument checking."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "primes_up_to": "primes",
    "primorial_up_to": "primes",
    "is_coprime": "primes",
    "largest_coprime_below": "primes",
    "coprime_count_in_primorial_interval": "primes",
    "coprime_gap_statistics": "primes",
    "block_starts": "intervals",
    "block_ranges": "intervals",
    "split_indices": "intervals",
    "contiguous_runs": "intervals",
    "random_tall_matrix": "rng",
    "random_spd_matrix": "rng",
    "random_diag_dominant_matrix": "rng",
    "random_lower_triangular": "rng",
    "Table": "fmt",
    "format_float": "fmt",
    "format_ratio": "fmt",
    "check_positive": "checks",
    "check_matrix": "checks",
    "check_square": "checks",
})
