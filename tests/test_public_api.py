"""The package's public names: `__all__` is complete, unique and importable."""

import types

import dicepool

# Adding or deleting a public name is a deliberate edit of this list.
PUBLIC_NAMES = [
    "ESTIMATE_REGIME_FACTOR", "BenchReport", "CountingSource",
    "EntropyExhausted", "EntropyPool", "EntropySource", "EnumerationResult",
    "NaiveModel", "OsSource", "RadixPlan", "RangeTooLarge", "SeededSource",
    "TapeSource", "WastePoint", "__version__", "bench_naive",
    "bench_recycler", "binary_entropy", "chi_square", "decode_mixed_radix",
    "efficiency_estimate", "encode_mixed_radix", "enumerate_exact",
    "equivalence_check", "naive_baseline", "roll_batch", "shuffle",
    "waste_monotonicity_table", "waste_per_iteration", "waste_per_roll",
    "waste_point",
]


def test_all_is_the_pinned_list():
    assert dicepool.__all__ == PUBLIC_NAMES


def test_all_names_resolve():
    for name in dicepool.__all__:
        assert hasattr(dicepool, name), name


def test_all_has_no_duplicates():
    assert len(dicepool.__all__) == len(set(dicepool.__all__))


def test_star_import_succeeds():
    namespace = {}
    exec("from dicepool import *", namespace)
    assert set(dicepool.__all__) <= namespace.keys()


def test_package_exports_nothing_beyond_all():
    # a deleted name left behind in an import would show up here
    exported = {name for name, value in vars(dicepool).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == set(dicepool.__all__) - {"__version__"}
