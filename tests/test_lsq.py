"""The Levenberg–Marquardt solver behind the three fits.

Each fit hands ``least_squares`` its residual and an analytic Jacobian;
``captured`` records them by wrapping the solver where the fit looks it
up, so the tests below check the fits' own closures. The closures take
and return lists; the recorded wrappers convert to and from ndarrays, so
the checks and scipy see arrays.
"""

import math
import random
import warnings

import numpy as np
import pytest

from rfbudget import (CalibrationPoint, FitError, VoltageSample, harvest,
                      lsq, radiopower)
from rfbudget.cli import main


def captured(monkeypatch, module):
    """Wrap ``module.least_squares``; returns the list of recorded calls."""
    calls = []

    def recording(residual, jacobian, x0, lower, **kwargs):
        x = lsq.least_squares(residual, jacobian, x0, lower, **kwargs)
        calls.append({
            "residual": lambda p: np.asarray(residual(
                [float(v) for v in p])),
            "jacobian": lambda p: np.column_stack(jacobian(
                [float(v) for v in p])),
            "x0": list(x0), "lower": list(lower), "x": np.asarray(x)})
        return x

    monkeypatch.setattr(module, "least_squares", recording)
    return calls


def charge_trace(rng, rows, v_oc, r_eq, cap, noise=0.01):
    tau = r_eq * cap
    end = tau * rng.uniform(2.0, 4.0)
    return [VoltageSample(t, max(-v_oc * math.expm1(-t / tau)
                                 + rng.gauss(0.0, noise), 0.0))
            for t in (end * i / (rows - 1) for i in range(rows))]


def calibration(rng, points, coeffs, noise=0.05):
    a1, a2, a3, a4 = coeffs
    lo, hi = max(0.2, a4 - 6.0 / a3), a4 + 6.0 / a3
    cal = []
    for i in range(points):
        c = lo + (hi - lo) * (i + rng.random()) / points
        p = a1 - a2 / (math.exp(a3 * (c - a4)) + 1.0) + rng.gauss(0.0, noise)
        cal.append(CalibrationPoint(c, p))
    return cal


def seeded_charge(seed):
    rng = random.Random(seed)
    v_oc = rng.uniform(2.5, 4.5)
    r_eq = math.exp(rng.uniform(math.log(300.0), math.log(3000.0)))
    cap = math.exp(rng.uniform(math.log(1e-3), math.log(22e-3)))
    return charge_trace(rng, rng.randint(50, 200), v_oc, r_eq, cap), cap, v_oc


def seeded_calibration(seed):
    rng = random.Random(seed)
    coeffs = (rng.uniform(3.0, 5.0), rng.uniform(35.0, 45.0),
              rng.uniform(0.4, 0.6), rng.uniform(6.0, 9.0))
    return calibration(rng, rng.randint(18, 24), coeffs)


def central_differences(residual, x):
    x = np.asarray(x, dtype=float)
    columns = []
    for k in range(x.size):
        h = 1e-7 * max(abs(x[k]), 1e-3)
        up, down = x.copy(), x.copy()
        up[k] += h
        down[k] -= h
        columns.append((residual(up) - residual(down)) / (2.0 * h))
    return np.column_stack(columns)


def assert_jacobian_matches(call, points):
    for x in points:
        analytic = call["jacobian"](np.asarray(x, dtype=float))
        numeric = central_differences(call["residual"], x)
        assert analytic.shape == numeric.shape
        # each entry to 1e-5 of itself or 1e-6 of its column's largest;
        # 1e-8 of the largest entry overall covers the rounding of a
        # difference quotient where a whole column is tiny (steep, clipped)
        scale = np.abs(analytic).max(axis=0)
        tol = 1e-5 * np.abs(numeric) + 1e-6 * scale + 1e-8 * scale.max()
        assert (np.abs(analytic - numeric) <= tol).all(), (x, analytic, numeric)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_charge_jacobian_matches_central_differences(monkeypatch, seed):
    calls = captured(monkeypatch, harvest)
    samples, cap, _ = seeded_charge(seed)
    harvest.fit_charge_model(samples, cap)
    (call,) = calls
    rng = np.random.default_rng(seed)
    v_oc, r_eq = call["x"]
    points = [(v_oc * rng.uniform(0.5, 2.0), r_eq * rng.uniform(0.2, 5.0))
              for _ in range(20)]
    assert_jacobian_matches(call, points)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_known_voc_jacobian_matches_central_differences(monkeypatch, seed):
    calls = captured(monkeypatch, harvest)
    samples, cap, v_oc = seeded_charge(seed)
    harvest.fit_r_known_voc(samples, cap, v_oc)
    (call,) = calls
    rng = np.random.default_rng(seed)
    points = [(call["x"][0] * rng.uniform(0.2, 5.0),) for _ in range(20)]
    assert_jacobian_matches(call, points)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sigmoid_jacobian_matches_central_differences(monkeypatch, seed):
    calls = captured(monkeypatch, radiopower)
    radiopower.fit_sigmoid(seeded_calibration(seed))
    (call,) = calls
    rng = np.random.default_rng(seed)
    a1, a2, a3, a4 = call["x"]
    points = [(a1 + rng.normal(), a2 * rng.uniform(0.5, 2.0),
               a3 * rng.uniform(0.2, 5.0), a4 + rng.normal())
              for _ in range(20)]
    # a slope so steep that the exponent is clipped at most points
    points += [(a1, a2, a3 * rng.uniform(1e3, 1e4), a4 + rng.normal())
               for _ in range(5)]
    assert_jacobian_matches(call, points)


def test_sigmoid_jacobian_is_zero_in_the_exponent_where_clipped(monkeypatch):
    calls = captured(monkeypatch, radiopower)
    radiopower.fit_sigmoid(seeded_calibration(4))
    (call,) = calls
    a1, a2, _, a4 = call["x"]
    jac = call["jacobian"](np.array([a1, a2, 1e6, a4]))
    residual = call["residual"](np.array([a1, a2, 1e6, a4]))
    assert np.isfinite(jac).all() and np.isfinite(residual).all()
    assert (jac[:, 2:] == 0.0).all()


def test_solver_fits_an_exact_line():
    ts = [float(t) for t in range(10)]
    ys = [2.0 * t + 1.0 for t in ts]
    x = lsq.least_squares(
        lambda p: [p[0] * t + p[1] - y for t, y in zip(ts, ys)],
        lambda p: [ts, [1.0] * len(ts)],
        [0.0, 0.0], [-math.inf, -math.inf], what="line")
    assert x == pytest.approx([2.0, 1.0], rel=1e-12)


def test_solver_converges_with_two_identical_jacobian_columns():
    # The residual depends on p[0] + p[1] only, so JᵀJ is singular and
    # only the damping makes each step solvable.
    ts = [float(t) for t in range(10)]
    ys = [2.0 * t + 0.1 * (-1) ** t for t in ts]
    x = lsq.least_squares(
        lambda p: [(p[0] + p[1]) * t - y for t, y in zip(ts, ys)],
        lambda p: [ts, ts], [0.0, 0.0], [-math.inf, -math.inf], what="twin")
    slope = math.fsum(t * y for t, y in zip(ts, ys)) / math.fsum(
        t * t for t in ts)
    assert x[0] + x[1] == pytest.approx(slope, rel=1e-12)


def test_failed_factorisation_is_a_rejected_step_without_an_evaluation(
        monkeypatch):
    solve = lsq._cholesky_solve
    diagonals, steps, evaluations = [], [], []

    def failing_thrice(a, b):
        if len(diagonals) < 3:
            diagonals.append(a[0][0])
            return None
        steps.append(solve(a, b))
        return steps[-1]

    def residual(p):
        evaluations.append(p)
        return [p[0] - 1.0]

    monkeypatch.setattr(lsq, "_cholesky_solve", failing_thrice)
    x = lsq.least_squares(residual, lambda p: [[1.0]], [3.0], [-math.inf],
                          what="flaky")
    assert x[0] == pytest.approx(1.0, rel=1e-12)
    # each failure raised lam tenfold: diag(JᵀJ) (1 + lam) = 1 + lam
    assert diagonals == [1.0 + 1e-3, 1.0 + 1e-2, 1.0 + 1e-1]
    # the seed and one per solved step; the failures evaluated nothing
    assert len(evaluations) == 1 + len(steps)


def test_solver_ends_after_lam_underflows_with_a_zero_jacobian_column():
    # p[0] ** 10 converges linearly (x0.9 a step), so over 320 accepted
    # steps lam falls to 0; the unused p[1] then leaves JᵀJ + lam * I
    # singular however often lam is multiplied by ten
    x = lsq.least_squares(lambda p: [p[0] ** 10],
                          lambda p: [[10.0 * p[0] ** 9], [0.0]],
                          [1.0, 0.0], [-1.0, -1.0], what="flat")
    assert abs(x[0]) < 1e-15 and x[1] == 0.0


def test_normal_equations_that_overflow_end_in_fit_error():
    # each Jacobian entry is finite, but JᵀJ is not
    with pytest.raises(FitError, match="the normal equations overflow "
                                       "after 1 evaluation$"):
        lsq.least_squares(
            lambda p: [1e200 * (p[0] + p[1]) - 1.0, 1e200 * (p[0] - p[1])],
            lambda p: [[1e200, 1e200], [1e200, -1e200]],
            [0.0, 0.0], [-1.0, -1.0], what="huge")


def test_cholesky_solve_reports_a_singular_matrix():
    assert lsq._cholesky_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]) is None
    assert lsq._cholesky_solve([[4.0, 2.0], [2.0, 3.0]],
                               [2.0, 1.0]) == pytest.approx([0.5, 0.0])


def test_solver_stops_on_the_lower_bound():
    # the unconstrained minimum x = -1 lies below the bound x >= 0.5
    x = lsq.least_squares(lambda p: [p[0] + 1.0], lambda p: [[1.0]],
                          [3.0], [0.5], what="bounded")
    assert x[0] == 0.5


def test_residual_turning_nan_ends_in_fit_error():
    ts = [float(t) for t in range(5)]
    evaluations = []

    def residual(p):
        evaluations.append(1)
        out = [p[0] * t - 1.0 for t in ts]
        return out if len(evaluations) == 1 else [v * math.nan for v in out]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError, match=r"not finite .* after \d+ "
                                           r"evaluations") as info:
            lsq.least_squares(residual, lambda p: [ts], [0.0], [-1.0],
                              what="nan")
    assert f"after {len(evaluations)} evaluations" in str(info.value)


def test_non_finite_seed_residual_ends_in_fit_error():
    with pytest.raises(FitError, match="seed is not finite after 1 evaluation$"):
        lsq.least_squares(lambda p: [math.inf], lambda p: [[1.0]], [1.0],
                          [0.0], what="inf")


def test_non_finite_jacobian_ends_in_fit_error():
    with pytest.raises(FitError, match="Jacobian is not finite"):
        lsq.least_squares(lambda p: [p[0]], lambda p: [[math.nan]], [1.0],
                          [0.0], what="jac")


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_infinite_jacobian_is_not_reported_as_an_overflow(bad):
    # an infinite entry also makes JᵀJ infinite; the Jacobian is named
    with pytest.raises(FitError, match="the Jacobian is not finite after 1 "
                                       "evaluation$"):
        lsq.least_squares(lambda p: [p[0], p[1]],
                          lambda p: [[1e200, 1.0], [bad, 1.0]],
                          [1.0, 1.0], [0.0, 0.0], what="jac")


@pytest.mark.parametrize("fit", [
    lambda s, cap, v_oc: harvest.fit_charge_model(s, cap),
    lambda s, cap, v_oc: harvest.fit_r_known_voc(s, cap, v_oc),
    lambda s, cap, v_oc: radiopower.fit_sigmoid(seeded_calibration(5)),
], ids=["charge", "voc", "sigmoid"])
def test_evaluation_limit_ends_in_fit_error(monkeypatch, fit):
    monkeypatch.setattr(lsq, "MAX_NFEV", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError, match="fit did not converge: the "
                           "evaluation limit was reached after 2 evaluations"):
            fit(*seeded_charge(5))


def test_cli_fit_that_does_not_converge_exits_with_one_error_line(
        monkeypatch, tmp_path, capsys):
    samples, cap, _ = seeded_charge(6)
    trace = tmp_path / "trace.csv"
    trace.write_text("t_s,v_v\n" + "".join(f"{s.t!r},{s.v!r}\n"
                                            for s in samples))
    cal = tmp_path / "cal.csv"
    cal.write_text("c_c_ma,p_t_dbm\n" + "".join(
        f"{p.supply_current!r},{p.tx_power!r}\n"
        for p in seeded_calibration(6)))
    monkeypatch.setattr(lsq, "MAX_NFEV", 3)
    for argv in (["fit-charge", "--trace", str(trace),
                  "--capacitance-f", repr(cap)],
                 ["fit-power", "--calibration", str(cal)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ")
        assert "after 3 evaluations" in err


def scipy_agrees(monkeypatch, module, fit):
    """Run ``fit``, then scipy's ``least_squares`` on the same residual,
    seed and bounds: the parameters agree to 1e-6 and ours leave a sum of
    squares no larger, up to float rounding."""
    optimize = pytest.importorskip("scipy.optimize")
    calls = captured(monkeypatch, module)
    fit()
    (call,) = calls
    ref = optimize.least_squares(call["residual"], x0=call["x0"],
                                 bounds=(call["lower"], np.inf))
    assert ref.success
    ours = call["residual"](call["x"])
    theirs = call["residual"](ref.x)
    assert call["x"] == pytest.approx(ref.x, rel=1e-6)
    assert ours @ ours <= (theirs @ theirs) * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", range(1, 21))
def test_charge_fit_agrees_with_scipy(monkeypatch, seed):
    samples, cap, _ = seeded_charge(seed)
    scipy_agrees(monkeypatch, harvest,
                 lambda: harvest.fit_charge_model(samples, cap))


@pytest.mark.parametrize("seed", range(1, 21))
def test_known_voc_fit_agrees_with_scipy(monkeypatch, seed):
    samples, cap, v_oc = seeded_charge(seed)
    scipy_agrees(monkeypatch, harvest,
                 lambda: harvest.fit_r_known_voc(samples, cap, v_oc))


@pytest.mark.parametrize("seed", range(1, 21))
def test_sigmoid_fit_agrees_with_scipy(monkeypatch, seed):
    points = seeded_calibration(seed)
    scipy_agrees(monkeypatch, radiopower,
                 lambda: radiopower.fit_sigmoid(points))
