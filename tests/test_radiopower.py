import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfbudget import (CalibrationPoint, DeviceProfile, FitError,
                      current_from_tx_power, fit_sigmoid, system_power,
                      tx_power_from_current)
from rfbudget import radiopower

# Synthetic coefficients for closed-form checks (no vendor publishes real
# ones, so the contract is round-trip based).
SYNTH = DeviceProfile(alpha1=4.0, alpha2=40.0, alpha3=0.5, alpha4=14.0)


def synth_curve(profile, currents):
    return [CalibrationPoint(supply_current=float(c),
                             tx_power=tx_power_from_current(profile, float(c)))
            for c in currents]


# tx_power_from_current ------------------------------------------------------

def test_midpoint_power():
    assert tx_power_from_current(SYNTH, 14.0) == pytest.approx(4.0 - 40.0 / 2.0,
                                                               rel=1e-12)


def test_lower_asymptote():
    # alpha3*alpha4 = 7 >> 1, so zero current sits near alpha1 - alpha2
    assert tx_power_from_current(SYNTH, 0.0) == pytest.approx(-36.0, abs=0.05)


def test_direct_evaluation():
    expected = 4.0 - 40.0 / (math.exp(0.5 * (16.24 - 14.0)) + 1.0)
    assert tx_power_from_current(SYNTH, 16.24) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-5.8404, abs=1e-4)


def test_tx_power_strictly_increasing():
    currents = np.linspace(0.0, 40.0, 200)
    powers = [tx_power_from_current(SYNTH, c) for c in currents]
    assert all(b > a for a, b in zip(powers, powers[1:]))


def test_tx_power_rejects_negative_current():
    with pytest.raises(ValueError):
        tx_power_from_current(SYNTH, -1.0)


def test_tx_power_requires_coefficients():
    with pytest.raises(ValueError):
        tx_power_from_current(DeviceProfile(), 10.0)


def test_tx_power_huge_current_hits_asymptote():
    assert tx_power_from_current(SYNTH, 1e9) == 4.0


# current_from_tx_power ------------------------------------------------------

def test_inverse_at_midpoint():
    assert current_from_tx_power(SYNTH, 4.0 - 20.0) == pytest.approx(14.0, rel=1e-12)


def test_inverse_round_trip_reference():
    p = tx_power_from_current(SYNTH, 16.24)
    assert current_from_tx_power(SYNTH, p) == pytest.approx(16.24, rel=1e-12)


@pytest.mark.parametrize("p_dbm", [4.0, 5.0, -36.0, -50.0])
def test_inverse_rejects_out_of_range(p_dbm):
    with pytest.raises(ValueError):
        current_from_tx_power(SYNTH, p_dbm)


@given(st.floats(min_value=4.0 - 40.0 + 0.1, max_value=4.0 - 0.1))
def test_inverse_identity_over_open_interval(p_dbm):
    c = current_from_tx_power(SYNTH, p_dbm)
    assert tx_power_from_current(SYNTH, c) == pytest.approx(p_dbm, abs=1e-9)


# system_power ---------------------------------------------------------------

def test_system_power_values():
    assert system_power(1.8, 10.0) == pytest.approx(18.0, rel=1e-12)
    assert system_power(0.0, 123.0) == 0.0
    assert system_power(2.5, 16.24) == pytest.approx(40.6, rel=1e-12)


def test_system_power_rejects_negative():
    with pytest.raises(ValueError):
        system_power(-1.0, 1.0)
    with pytest.raises(ValueError):
        system_power(1.0, -1.0)


def test_system_power_linear_in_voltage():
    # current is treated as voltage-independent, so power scales with v_cc
    base = system_power(1.0, 16.24)
    for v in (1.8, 2.5, 3.5):
        assert system_power(v, 16.24) == pytest.approx(v * base, rel=1e-12)


# fit_sigmoid ----------------------------------------------------------------

def test_fit_sigmoid_noiseless_round_trip():
    points = synth_curve(SYNTH, np.linspace(0.5, 30.0, 14))
    coeffs = fit_sigmoid(points)
    assert coeffs.alpha1 == pytest.approx(4.0, rel=1e-2)
    assert coeffs.alpha2 == pytest.approx(40.0, rel=1e-2)
    assert coeffs.alpha3 == pytest.approx(0.5, rel=1e-2)
    assert coeffs.alpha4 == pytest.approx(14.0, rel=1e-2)
    assert coeffs.alpha2 > 0 and coeffs.alpha3 > 0


def test_fit_sigmoid_noisy_rms_bound():
    rng = np.random.default_rng(11)
    currents = np.linspace(0.5, 30.0, 24)
    points = [CalibrationPoint(supply_current=float(c),
                               tx_power=tx_power_from_current(SYNTH, float(c))
                               + float(rng.normal(0.0, 0.1)))
              for c in currents]
    coeffs = fit_sigmoid(points)
    fitted = DeviceProfile(alpha1=coeffs.alpha1, alpha2=coeffs.alpha2,
                           alpha3=coeffs.alpha3, alpha4=coeffs.alpha4)
    truth = [tx_power_from_current(SYNTH, float(c)) for c in currents]
    pred = [tx_power_from_current(fitted, float(c)) for c in currents]
    rms = math.sqrt(np.mean((np.array(pred) - np.array(truth)) ** 2))
    assert rms <= 0.2


def test_fit_sigmoid_is_grid_optimal():
    # no point on a +-20% multiplicative grid around the fitted
    # coefficients gives a lower sum of squares
    rng = np.random.default_rng(31)
    currents = np.linspace(0.5, 30.0, 24)
    ps = np.array([tx_power_from_current(SYNTH, float(c)) for c in currents])
    noisy = ps + rng.normal(0.0, 0.1, size=ps.size)
    coeffs = fit_sigmoid([CalibrationPoint(float(c), float(p))
                          for c, p in zip(currents, noisy)])

    def sse(a1, a2, a3, a4):
        pred = a1 - a2 / (np.exp(a3 * (currents[None, :] - a4)) + 1.0)
        return np.sum((pred - noisy[None, :]) ** 2, axis=-1)

    best = float(sse(coeffs.alpha1, coeffs.alpha2, coeffs.alpha3,
                     coeffs.alpha4)[0])
    scales = np.linspace(0.8, 1.2, 9)
    grid = np.stack(np.meshgrid(*(scales,) * 4), axis=-1).reshape(-1, 4)
    candidates = sse(grid[:, 0, None] * coeffs.alpha1,
                     grid[:, 1, None] * coeffs.alpha2,
                     grid[:, 2, None] * coeffs.alpha3,
                     grid[:, 3, None] * coeffs.alpha4)
    assert best <= float(candidates.min()) + 1e-9


def test_fit_sigmoid_rejects_few_points():
    points = synth_curve(SYNTH, [5.0, 10.0, 20.0])
    with pytest.raises(FitError):
        fit_sigmoid(points)


def test_fit_sigmoid_rejects_non_monotone():
    points = synth_curve(SYNTH, np.linspace(1.0, 28.0, 10))
    broken = list(points)
    broken[5] = CalibrationPoint(supply_current=broken[5].supply_current,
                                 tx_power=broken[5].tx_power - 25.0)
    with pytest.raises(FitError, match="monotone"):
        fit_sigmoid(broken)


@settings(max_examples=15, deadline=None)
@given(a1=st.floats(min_value=-2.0, max_value=10.0),
       a2=st.floats(min_value=20.0, max_value=60.0),
       a3=st.floats(min_value=0.2, max_value=1.5),
       a4=st.floats(min_value=8.0, max_value=22.0))
def test_fit_sigmoid_round_trip_property(a1, a2, a3, a4):
    truth = DeviceProfile(alpha1=a1, alpha2=a2, alpha3=a3, alpha4=a4)
    span = 8.0 / a3  # cover both knees around the midpoint
    currents = np.linspace(max(a4 - span, 0.1), a4 + span, 16)
    coeffs = fit_sigmoid(synth_curve(truth, currents))
    fitted = DeviceProfile(alpha1=coeffs.alpha1, alpha2=coeffs.alpha2,
                           alpha3=coeffs.alpha3, alpha4=coeffs.alpha4)
    for c in currents:
        assert tx_power_from_current(fitted, float(c)) == pytest.approx(
            tx_power_from_current(truth, float(c)), abs=1e-3)


def test_fit_sigmoid_dense_noisy_calibration_converges_fast(monkeypatch):
    # A dense calibration: neighbouring points are closer than the noise
    # lets their slope be read, so the slope seed must not come from them.
    rng = np.random.default_rng(5)
    a4, a3 = SYNTH.alpha4, SYNTH.alpha3
    currents = np.sort(rng.uniform(max(0.2, a4 - 6.0 / a3), a4 + 6.0 / a3,
                                   5000))
    points = [CalibrationPoint(float(c), tx_power_from_current(SYNTH, float(c))
                               + float(rng.normal(0.0, 0.05)))
              for c in currents]
    evaluations = []
    solve = radiopower.least_squares

    def counted(residual, *args, **kwargs):
        def residual_counted(x):
            evaluations.append(1)
            return residual(x)
        return solve(residual_counted, *args, **kwargs)

    monkeypatch.setattr(radiopower, "least_squares", counted)
    coeffs = fit_sigmoid(points)
    assert len(evaluations) <= 15
    assert coeffs.alpha3 == pytest.approx(SYNTH.alpha3, rel=0.02)
