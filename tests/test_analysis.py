"""Closed-form waste model: values, domains, float edges, regimes."""

import math

import pytest

from dicepool import binary_entropy, efficiency_estimate, waste_per_roll, waste_point


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


def test_waste_point_values():
    assert waste_point(3, 8).waste_iter == pytest.approx(0.8112781244591328, abs=1e-12)
    for sides, pool_size in [(4, 8), (3, 6)]:  # the die divides the pool
        exact = waste_point(sides, pool_size)
        assert (exact.p, exact.waste_iter, exact.waste_roll) == (1.0, 0.0, 0.0)


def test_waste_point_domain():
    for sides, pool_size in [(6, 0), (0, 8), (6, -8)]:
        with pytest.raises(ValueError):
            waste_point(sides, pool_size)


@pytest.mark.parametrize("model", [waste_point, efficiency_estimate])
def test_model_refuses_non_integer_die(model):
    with pytest.raises(TypeError):
        model(6.5, 64)


def test_waste_point_past_float_precision():
    # At m = 2^60, p = (m - m % 6) / m rounds to 1.0; the waste must not.
    m = 1 << 60
    point = waste_point(6, m)
    q = (m % 6) / m
    model = q * (math.log2(1 / q) + 1 / math.log(2))
    assert point.waste_roll > 0
    assert math.isclose(point.waste_roll, model, rel_tol=1e-9)
    empty = waste_point(6, 5)  # a pool smaller than the die keeps nothing
    assert empty.p == 0
    assert empty.waste_roll == math.inf


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
