import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rfbudget import (ChargeModel, EscState, FitError, OcvTable,
                      UnreachableVoltageError, VoltageSample, charge_voltage,
                      fit_charge_model, fit_r_known_voc, prediction_error,
                      stored_energy, time_to_voltage)

SMALL_CAP_MODEL = ChargeModel(v_oc=2.6, r_eq=170.6, capacitance=2.2e-3)
LARGE_CAP_MODEL = ChargeModel(v_oc=3.2, r_eq=3.7e3, capacitance=50e-3)


def make_trace(model, times, sigma=0.0, rng=None):
    vs = np.array([charge_voltage(model, t) for t in times])
    if sigma:
        vs = vs + rng.normal(0.0, sigma, size=len(vs))
    return [VoltageSample(t=float(t), v=float(max(v, 0.0)))
            for t, v in zip(times, vs)]


def sum_squared_residual(model, samples):
    return sum((charge_voltage(model, s.t) - s.v) ** 2 for s in samples)


# charge_voltage ------------------------------------------------------------

def test_charge_voltage_starts_at_zero():
    assert charge_voltage(SMALL_CAP_MODEL, 0.0) == 0.0


def test_charge_voltage_one_time_constant():
    v = charge_voltage(SMALL_CAP_MODEL, SMALL_CAP_MODEL.tau)
    assert v == pytest.approx(2.6 * (1.0 - math.exp(-1.0)), rel=1e-12)
    assert v == pytest.approx(1.6435, abs=2e-4)
    assert SMALL_CAP_MODEL.tau == pytest.approx(0.3753, abs=2e-4)


def test_charge_voltage_approaches_open_circuit():
    v = charge_voltage(SMALL_CAP_MODEL, 20.0 * SMALL_CAP_MODEL.tau)
    assert abs(v - 2.6) < 1e-8


def test_charge_voltage_rejects_negative_time():
    with pytest.raises(ValueError):
        charge_voltage(SMALL_CAP_MODEL, -0.1)


@given(st.floats(min_value=1e-4, max_value=5.0),
       st.floats(min_value=1e-4, max_value=5.0))
def test_charge_voltage_increasing_and_concave(t, dt):
    v0 = charge_voltage(SMALL_CAP_MODEL, t)
    v1 = charge_voltage(SMALL_CAP_MODEL, t + dt)
    v2 = charge_voltage(SMALL_CAP_MODEL, t + 2 * dt)
    assert v1 > v0
    assert v1 - v0 > v2 - v1  # increments shrink: concave


# stored_energy -------------------------------------------------------------

def test_stored_energy_values():
    assert stored_energy(EscState(50e-3, 2.0)) == pytest.approx(0.1, rel=1e-12)
    assert stored_energy(EscState(2.2e-3, 0.0)) == 0.0
    v = charge_voltage(SMALL_CAP_MODEL, SMALL_CAP_MODEL.tau)
    assert stored_energy(EscState(2.2e-3, v)) == pytest.approx(2.972e-3, rel=1e-3)


# fit_charge_model ----------------------------------------------------------

def test_fit_recovers_noiseless_parameters():
    times = np.linspace(0.1, 3.0, 12) * SMALL_CAP_MODEL.tau
    samples = make_trace(SMALL_CAP_MODEL, times)
    fitted = fit_charge_model(samples, SMALL_CAP_MODEL.capacitance)
    assert fitted.v_oc == pytest.approx(2.6, rel=1e-3)
    assert fitted.r_eq == pytest.approx(170.6, rel=5e-3)


def test_fit_is_grid_optimal():
    # No point on a +-20% multiplicative grid around the fit beats its
    # residual, so the solver really found the least-squares minimum.
    rng = np.random.default_rng(7)
    times = np.linspace(0.05, 2.5, 20) * LARGE_CAP_MODEL.tau
    samples = make_trace(LARGE_CAP_MODEL, times, sigma=5e-3, rng=rng)
    fitted = fit_charge_model(samples, LARGE_CAP_MODEL.capacitance)
    best = sum_squared_residual(fitted, samples)
    scales = np.linspace(0.8, 1.2, 21)
    for sv in scales:
        for sr in scales:
            candidate = ChargeModel(v_oc=fitted.v_oc * sv,
                                    r_eq=fitted.r_eq * sr,
                                    capacitance=fitted.capacitance)
            assert best <= sum_squared_residual(candidate, samples) + 1e-12


def test_fit_noisy_trace_residual_bound():
    rng = np.random.default_rng(42)
    times = np.linspace(0.05, 3.0, 40) * LARGE_CAP_MODEL.tau
    samples = make_trace(LARGE_CAP_MODEL, times, sigma=5e-3, rng=rng)
    fitted = fit_charge_model(samples, LARGE_CAP_MODEL.capacitance)
    assert prediction_error(fitted, samples) <= 1e-2


def test_fit_rejects_too_few_samples():
    samples = make_trace(SMALL_CAP_MODEL, [0.1, 0.2])
    with pytest.raises(FitError):
        fit_charge_model(samples, 2.2e-3)


def test_fit_rejects_degenerate_voltages():
    samples = [VoltageSample(t, 1.5) for t in (0.1, 0.2, 0.3)]
    with pytest.raises(FitError, match="degenerate"):
        fit_charge_model(samples, 2.2e-3)


def test_fit_rejects_single_time():
    samples = [VoltageSample(0.1, v) for v in (1.0, 1.1, 1.2)]
    with pytest.raises(FitError):
        fit_charge_model(samples, 2.2e-3)


def test_fit_rejects_unphysical_voltages():
    samples = [VoltageSample(t, v) for t, v in ((0.1, 3.0), (0.2, 8.0), (0.3, 12.0))]
    with pytest.raises(FitError, match="ceiling"):
        fit_charge_model(samples, 2.2e-3)


@settings(max_examples=25, deadline=None)
@given(v_oc=st.floats(min_value=0.5, max_value=5.0),
       r_eq=st.floats(min_value=50.0, max_value=10e3),
       cap=st.floats(min_value=1e-3, max_value=100e-3))
def test_fit_round_trip_property(v_oc, r_eq, cap):
    truth = ChargeModel(v_oc=v_oc, r_eq=r_eq, capacitance=cap)
    times = np.linspace(0.1, 3.0, 12) * truth.tau
    fitted = fit_charge_model(make_trace(truth, times), cap)
    assert fitted.v_oc == pytest.approx(v_oc, rel=1e-2)
    assert fitted.r_eq == pytest.approx(r_eq, rel=1e-2)


# fit_r_known_voc -----------------------------------------------------------

def test_fit_r_known_voc_round_trip():
    times = np.linspace(0.1, 2.0, 8) * SMALL_CAP_MODEL.tau
    samples = make_trace(SMALL_CAP_MODEL, times)
    fitted = fit_r_known_voc(samples, 2.2e-3, 2.6)
    assert fitted.r_eq == pytest.approx(170.6, rel=1e-3)
    assert fitted.v_oc == 2.6


def test_fit_r_known_voc_single_sample_closed_form():
    t = 0.25
    v = charge_voltage(SMALL_CAP_MODEL, t)
    fitted = fit_r_known_voc([VoltageSample(t, v)], 2.2e-3, 2.6)
    assert fitted.r_eq == pytest.approx(170.6, rel=1e-6)


def test_fit_r_known_voc_rejects_saturated_sample():
    with pytest.raises(FitError):
        fit_r_known_voc([VoltageSample(1.0, 2.7)], 2.2e-3, 2.6)
    with pytest.raises(FitError):
        fit_r_known_voc([VoltageSample(1.0, 2.6)], 2.2e-3, 2.6)


def test_fit_r_known_voc_needs_informative_sample():
    with pytest.raises(FitError):
        fit_r_known_voc([VoltageSample(0.0, 0.0)], 2.2e-3, 2.6)


@pytest.mark.parametrize("r_eq, capacitance, got", [
    (5e-324, 1e-3, "0.0"), (1e-200, 1e-200, "0.0"), (800.0, 1.7e308, "inf")])
def test_charge_model_needs_a_positive_finite_time_constant(r_eq, capacitance,
                                                            got):
    with pytest.raises(ValueError, match="time constant r_eq \\* capacitance "
                                         f"must be .*, got {got}"):
        ChargeModel(v_oc=3.0, r_eq=r_eq, capacitance=capacitance)


TINY_CAP_TRACE = [VoltageSample(t, v) for t, v in
                  ((0.0, 0.0), (0.5, 1.0), (1.0, 1.6), (2.0, 2.3))]


@pytest.mark.parametrize("fit", [
    lambda: fit_charge_model(TINY_CAP_TRACE, 5e-324),
    lambda: fit_r_known_voc(TINY_CAP_TRACE, 5e-324, 3.0),
    lambda: fit_r_known_voc(TINY_CAP_TRACE[1:2], 5e-324, 3.0),
], ids=["charge", "voc", "voc-single-sample"])
def test_fit_rejects_a_seed_without_a_time_constant(fit):
    # r_eq * C underflows in the seed's inversion: the fit stops before
    # the solver, with the reason
    with pytest.raises(FitError, match="cannot seed the fit: .* time "
                                       "constant inf s"):
        fit()


@pytest.mark.parametrize("fit", [
    lambda: fit_charge_model(TINY_CAP_TRACE, 1e300),
    lambda: fit_r_known_voc(TINY_CAP_TRACE, 1e300, 3.0),
], ids=["charge", "voc"])
def test_fit_that_ends_on_the_lower_bound_is_an_error(fit):
    # The seed r_eq (about 1e-300 ohm) lies below the 1e-12 ohm bound, the
    # clipped r_eq gives a time constant of 1e288 s, the Jacobian column
    # underflows to zero and the solver stops where clipping put it.
    with pytest.raises(FitError, match="hit the lower bound 1e-12 ohm on "
                                       "r_eq"):
        fit()


def test_fit_keeps_the_time_constant_positive_at_a_tiny_capacitance():
    # 1e-12 ohm times 1e-315 F underflows to a zero time constant, so the
    # lower bound on r_eq rises to about 2.2e7 ohm: r_eq * C stays a
    # positive float and no step divides by zero. The seed r_eq (about
    # 2.6e6 ohm, from the first sample and a v_oc seed far below 3 V) lies
    # below that bound; the fit starts on it and leaves it.
    truth = ChargeModel(v_oc=3.0, r_eq=3e8, capacitance=1e-315)
    trace = [VoltageSample(t, charge_voltage(truth, t))
             for t in (0.0, 1e-309, 2e-309, 3e-309)]
    model = fit_charge_model(trace, 1e-315)
    assert model.r_eq == pytest.approx(3e8, rel=1e-6)
    assert math.isfinite(model.tau) and model.tau > 0.0
    # Here the data want a time constant far below the least positive
    # float, and the fit stays on the bound: an error, not a model.
    trace = [VoltageSample(t, v) for t, v in
             ((0.0, 0.0), (1e-322, 1.0), (2e-322, 1.0), (3e-322, 1.0))]
    with pytest.raises(FitError, match="hit the lower bound 2.22507e.07 ohm"):
        fit_charge_model(trace, 1e-315)


# time_to_voltage -----------------------------------------------------------

def test_time_to_voltage_zero_target():
    assert time_to_voltage(SMALL_CAP_MODEL, 0.0) == 0.0


def test_time_to_voltage_reference_point():
    v = charge_voltage(SMALL_CAP_MODEL, SMALL_CAP_MODEL.tau)
    t = time_to_voltage(SMALL_CAP_MODEL, v)
    assert t == pytest.approx(SMALL_CAP_MODEL.tau, rel=1e-10)
    assert t == pytest.approx(0.3753, abs=2e-4)
    assert charge_voltage(SMALL_CAP_MODEL, t) == pytest.approx(v, abs=1e-9)


def test_time_to_voltage_rejects_open_circuit():
    with pytest.raises(UnreachableVoltageError):
        time_to_voltage(SMALL_CAP_MODEL, 2.6)
    with pytest.raises(UnreachableVoltageError):
        time_to_voltage(SMALL_CAP_MODEL, 3.0)
    with pytest.raises(ValueError):
        time_to_voltage(SMALL_CAP_MODEL, -0.1)


@given(st.floats(min_value=1e-6, max_value=10.0))
def test_time_to_voltage_round_trip(t_over_tau):
    t = t_over_tau * SMALL_CAP_MODEL.tau
    v = charge_voltage(SMALL_CAP_MODEL, t)
    assert time_to_voltage(SMALL_CAP_MODEL, v) == pytest.approx(t, rel=1e-6)


# prediction_error ----------------------------------------------------------

def test_prediction_error_zero_on_exact_samples():
    times = np.linspace(0.1, 2.0, 6) * SMALL_CAP_MODEL.tau
    samples = make_trace(SMALL_CAP_MODEL, times)
    assert prediction_error(SMALL_CAP_MODEL, samples) == pytest.approx(0.0, abs=1e-12)


def test_prediction_error_single_offset_sample():
    t = SMALL_CAP_MODEL.tau
    v = charge_voltage(SMALL_CAP_MODEL, t) + 0.010
    assert prediction_error(SMALL_CAP_MODEL, [VoltageSample(t, v)]) == \
        pytest.approx(0.010, rel=1e-9)


def test_prediction_error_rejects_empty():
    with pytest.raises(ValueError):
        prediction_error(SMALL_CAP_MODEL, [])


# OcvTable.voltage_at -------------------------------------------------------

def test_ocv_exact_at_knots(p2110_table):
    for p_dbm, v_oc in p2110_table.points:
        assert p2110_table.voltage_at(p_dbm) == pytest.approx(v_oc, abs=1e-12)


def test_ocv_midpoint_interpolation(p2110_table):
    assert p2110_table.voltage_at(-12.65) == pytest.approx(0.65, rel=1e-12)
    assert p2110_table.voltage_at(-14.0) == 0.4
    assert p2110_table.voltage_at(-7.0) == 2.0


def test_ocv_clamps_outside_range(p2110_table):
    assert p2110_table.voltage_at(-25.0) == 0.4
    assert p2110_table.voltage_at(0.0) == 4.0
    assert p2110_table.clamps(-25.0)
    assert p2110_table.clamps(0.0)
    assert not p2110_table.clamps(-7.0)
    assert not p2110_table.clamps(-14.0)


def test_ocv_monotone_nondecreasing(p2110_table):
    grid = np.linspace(-20.0, 2.0, 400)
    values = [p2110_table.voltage_at(p) for p in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_ocv_table_rejects_non_monotone():
    with pytest.raises(ValueError):
        OcvTable([(-14.0,  0.4), (-11.0, 0.3)])
    with pytest.raises(ValueError):
        OcvTable([(-14.0, 0.4), (-14.0, 0.9)])
    with pytest.raises(ValueError):
        OcvTable([])


@pytest.mark.parametrize("points", [
    [(-1e308, -1e308), (1e308, 1e308)],   # both spans overflow
    [(-3.0, -1.5e308), (-1.0, -1e308), (1.0, 1e308)],  # a voltage span
    [(0.0, 0.0), (1e-308, 1e10)],         # the slope
], ids=["power-and-voltage", "voltage", "slope"])
def test_ocv_table_rejects_a_step_that_overflows(points):
    (p0, v0), (p1, v1) = points[-2:]
    with pytest.raises(ValueError, match="overflows") as excinfo:
        OcvTable(points)
    assert f"({p0}, {v0}) -> ({p1}, {v1})" in str(excinfo.value)


# OcvTable.voltage_at equals numpy.interp bit for bit ---------------------------

def assert_equals_numpy_interp(table, queries):
    ps = [p for p, _ in table.points]
    vs = [v for _, v in table.points]
    for x in queries:
        assert table.voltage_at(x) == float(np.interp(x, ps, vs)), x
        assert table.clamps(x) == (x < ps[0] or x > ps[-1]), x


def knots_and_neighbours(table):
    """Every knot, its two float neighbours, and points beyond both ends."""
    ps = [p for p, _ in table.points]
    queries = [ps[0] - 1e3, ps[0] - 1.0, ps[-1] + 1.0, ps[-1] + 1e3]
    for p in ps:
        queries += [math.nextafter(p, -math.inf), p,
                    math.nextafter(p, math.inf)]
    return queries


def test_ocv_equals_numpy_interp_on_p2110(p2110_table):
    queries = knots_and_neighbours(p2110_table)
    queries += [float(p) for p in np.linspace(-16.0, 0.0, 1601)]
    assert_equals_numpy_interp(p2110_table, queries)


MODERATE = st.floats(min_value=-1e6, max_value=1e6)


@st.composite
def ocv_points(draw):
    """1-8 points, strictly increasing in both coordinates."""
    n = draw(st.integers(1, 8))
    coordinate = st.lists(MODERATE, min_size=n, max_size=n, unique=True)
    return list(zip(sorted(draw(coordinate)), sorted(draw(coordinate))))


@settings(max_examples=300, deadline=None)
@given(points=ocv_points(), extra=st.lists(MODERATE, max_size=4))
@example(points=[(-5.0, 2.6)], extra=[-100.0, 100.0])
def test_ocv_equals_numpy_interp_on_any_table(points, extra):
    # The table rejects a step whose slope overflows; that needs two
    # powers closer together than any measured table has.
    assume(all(math.isfinite((v1 - v0) / (p1 - p0))
               for (p0, v0), (p1, v1) in zip(points, points[1:])))
    table = OcvTable(points)
    assert_equals_numpy_interp(table, knots_and_neighbours(table) + extra)
