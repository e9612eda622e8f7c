"""The package's public names: `__all__` is complete, unique and importable."""

import types

import dicepool

# Adding or deleting a public name is a deliberate edit of this list.
PUBLIC_NAMES = [
    "ESTIMATE_REGIME_FACTOR", "BenchReport", "CountingSource",
    "EntropyExhausted", "EntropyPool", "EntropySource", "EnumerationResult",
    "OsSource", "RadixPlan", "RangeTooLarge", "SeededSource", "TapeSource",
    "WastePoint", "__version__", "bench_naive", "bench_recycler",
    "binary_entropy", "chi_square", "decode_mixed_radix",
    "efficiency_estimate", "enumerate_exact", "roll_batch", "shuffle",
    "waste_per_roll", "waste_point",
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


def test_public_names_have_docstrings():
    # the docstrings are the contracts; README.md tells the mechanism
    pool = dicepool.EntropyPool
    named = {name: getattr(dicepool, name) for name in dicepool.__all__}
    named.update((f"EntropyPool.{name}", getattr(pool, name)) for name in dir(pool)
                 if not name.startswith("_"))
    checked = {name for name, obj in named.items() if callable(obj)}
    assert {"EntropyPool.roll_many", "EntropyPool.from_snapshot", "roll_batch"} <= checked
    for name in checked:
        assert (named[name].__doc__ or "").strip(), f"{name} has no docstring"
