"""dicepool: fair die rolls from coin flips with entropy recycling.

The pool keeps the entropy a die roll produces as a by-product (the
quotient of the accepted draw, the leftover range of a rejected one)
and spends it on later rolls, so long-run waste per roll is nearly
zero even when the die range changes every round. The analysis module
prices that waste in closed form; the harness measures it.
"""

from .analysis import (
    ESTIMATE_REGIME_FACTOR,
    NaiveModel,
    WastePoint,
    binary_entropy,
    efficiency_estimate,
    naive_baseline,
    waste_monotonicity_table,
    waste_per_iteration,
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
from .radix import (
    RadixPlan,
    decode_mixed_radix,
    encode_mixed_radix,
    equivalence_check,
    roll_batch,
)
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
    "NaiveModel",
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
    "encode_mixed_radix",
    "enumerate_exact",
    "equivalence_check",
    "naive_baseline",
    "roll_batch",
    "shuffle",
    "waste_monotonicity_table",
    "waste_per_iteration",
    "waste_per_roll",
    "waste_point",
]
