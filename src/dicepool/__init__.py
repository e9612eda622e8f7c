"""dicepool: fair die rolls from coin flips with entropy recycling.

The pool keeps the entropy a roll leaves over and spends it on later
rolls, so waste per roll is nearly zero even when the die changes every
round. `analysis` prices that waste in closed form; `harness` measures it.
"""

from .analysis import (
    ESTIMATE_REGIME_FACTOR,
    WastePoint,
    binary_entropy,
    efficiency_estimate,
    waste_per_roll,
    waste_point,
)
from .harness import (
    BenchReport,
    EnumerationResult,
    bench_naive,
    bench_recycler,
    chi_square,
    enumerate_exact,
    shuffle,
)
from .pool import EntropyPool, RangeTooLarge
from .radix import RadixPlan, decode_mixed_radix, roll_batch
from .sources import (
    CountingSource,
    EntropyExhausted,
    EntropySource,
    OsSource,
    SeededSource,
    TapeSource,
)

__version__ = "0.1.0"

__all__ = [
    "ESTIMATE_REGIME_FACTOR",
    "BenchReport",
    "CountingSource",
    "EntropyExhausted",
    "EntropyPool",
    "EntropySource",
    "EnumerationResult",
    "OsSource",
    "RadixPlan",
    "RangeTooLarge",
    "SeededSource",
    "TapeSource",
    "WastePoint",
    "__version__",
    "bench_naive",
    "bench_recycler",
    "binary_entropy",
    "chi_square",
    "decode_mixed_radix",
    "efficiency_estimate",
    "enumerate_exact",
    "roll_batch",
    "shuffle",
    "waste_per_roll",
    "waste_point",
]
