"""Closed-form waste model: values, identities, monotonicity, regimes."""

import math
import random

import pytest

from dicepool import (
    ESTIMATE_REGIME_FACTOR,
    RegimeWarning,
    binary_entropy,
    efficiency_estimate,
    estimate_point,
    naive_baseline,
    waste_monotonicity_table,
    waste_per_iteration,
    waste_per_roll,
)


def test_binary_entropy_peak_and_edges():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_value():
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)


def test_binary_entropy_tiny_argument():
    # the (1-p) term is p/ln 2 to first order, not lost to 1.0 - p == 1.0
    p = 2.0**-60
    model = p * (math.log2(1 / p) + 1 / math.log(2))
    assert math.isclose(binary_entropy(p), model, rel_tol=1e-12)


def test_binary_entropy_symmetry():
    for p in (0.01, 0.2, 0.37):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-12)


@pytest.mark.parametrize("p", [-0.1, 1.1, 2.0])
def test_binary_entropy_domain(p):
    with pytest.raises(ValueError):
        binary_entropy(p)


def test_waste_per_iteration_values():
    assert waste_per_iteration(8, 3, 2) == pytest.approx(0.8112781244591328, abs=1e-12)
    assert waste_per_iteration(8, 4, 2) == 0.0
    assert waste_per_iteration(6, 3, 1) == pytest.approx(1.0, abs=1e-12)


def test_waste_per_iteration_domain():
    with pytest.raises(ValueError):
        waste_per_iteration(8, 3, 3)  # 9 accepted states out of 8
    with pytest.raises(ValueError):
        waste_per_iteration(8, 0, 1)
    with pytest.raises(ValueError):
        waste_per_iteration(8, 3, 0)


def test_waste_equals_flip_information_sampled():
    rng = random.Random(13)
    for _ in range(1000):
        pool_size = rng.randrange(1, 1 << 20)
        sides = rng.randrange(1, pool_size + 1)
        keep = rng.randrange(1, pool_size // sides + 1)
        ledger = waste_per_iteration(pool_size, sides, keep)
        flip = binary_entropy(sides * keep / pool_size)
        assert ledger == pytest.approx(flip, abs=1e-12)


def test_waste_per_roll_values():
    assert waste_per_roll(1.0) == 0.0
    assert waste_per_roll(0.5) == 2.0
    assert waste_per_roll(0.9) == pytest.approx(0.5211062150992012, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, -0.5, 1.5])
def test_waste_per_roll_domain(p):
    with pytest.raises(ValueError):
        waste_per_roll(p)


def test_small_pool_regime():
    # above one-half accept probability a roll never wastes two bits,
    # and the waste blows up as the accept probability vanishes
    for p in (0.500001, 0.6, 0.75, 0.99, 1.0):
        assert waste_per_roll(p) < 2.0
    assert waste_per_roll(1e-3) > waste_per_roll(1e-2) > waste_per_roll(0.1)
    assert waste_per_roll(1e-6) > 20.0


def test_efficiency_estimate_huge_pool_saturates():
    assert efficiency_estimate(33, 1 << 64) == 1.0
    # the deficit really is ~1e-17, far below double resolution around 1.0
    deficit = (33 / (2.0 * 2.0**64)) * (
        (1 + math.log(2) + math.log(2.0**64) - math.log(33)) / math.log(33)
    )
    assert 0.9e-17 < deficit < 1.3e-17


def test_efficiency_estimate_moderate_pool():
    eta = efficiency_estimate(33, 1 << 16)
    assert eta == pytest.approx(0.9993312793558786, abs=1e-12)
    assert 0.99 < eta < 1.0


def test_efficiency_estimate_domain():
    with pytest.raises(ValueError):
        efficiency_estimate(1, 1024)
    with pytest.raises(ValueError):
        efficiency_estimate(33, 0)


def test_efficiency_estimate_warns_out_of_regime():
    with pytest.warns(RegimeWarning):
        efficiency_estimate(33, 66)


def test_estimate_point_flags_regime():
    assert estimate_point(33, ESTIMATE_REGIME_FACTOR * 33).in_regime
    assert not estimate_point(33, ESTIMATE_REGIME_FACTOR * 33 - 1).in_regime


def test_estimate_monotone_under_doubling():
    for sides in (3, 6, 33):
        pool_size = ESTIMATE_REGIME_FACTOR * sides
        last = efficiency_estimate(sides, pool_size)
        while pool_size <= 1 << 24:
            pool_size *= 2
            eta = efficiency_estimate(sides, pool_size)
            assert eta >= last
            last = eta


def test_naive_baseline_short_deck_with_joker():
    model = naive_baseline(33)
    assert model.word_bits == 6
    assert model.expected_bits == pytest.approx(11.636363636363637, abs=1e-9)
    assert model.efficiency == pytest.approx(0.4335026196323671, abs=1e-9)


def test_naive_baseline_power_of_two():
    model = naive_baseline(32)
    assert (model.word_bits, model.expected_bits, model.efficiency) == (5, 5.0, 1.0)


def test_naive_baseline_three_sided():
    model = naive_baseline(3)
    assert model.word_bits == 2
    assert model.expected_bits == pytest.approx(8 / 3, abs=1e-12)
    assert model.efficiency == pytest.approx(0.5943609377704335, abs=1e-9)


def test_naive_baseline_domain():
    with pytest.raises(ValueError):
        naive_baseline(1)


def test_monotonicity_table_three_of_sixty_four():
    table = waste_monotonicity_table(3, 64)
    assert [point.keep for point in table] == list(range(1, 22))
    for a, b in zip(table, table[1:]):
        assert b.p > a.p
        assert b.waste_roll < a.waste_roll
    assert table[-1].p == pytest.approx(63 / 64)


def test_monotonicity_table_exact_division_hits_zero():
    table = waste_monotonicity_table(2, 4)
    assert table[-1].p == 1.0
    assert table[-1].waste_roll == 0.0
    assert table[-1].waste_iter == 0.0


def test_monotonicity_table_degenerate():
    table = waste_monotonicity_table(5, 5)
    assert len(table) == 1
    assert table[0].p == 1.0
    assert table[0].waste_roll == 0.0


def test_monotonicity_table_domain():
    with pytest.raises(ValueError):
        waste_monotonicity_table(6, 5)
