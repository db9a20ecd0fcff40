"""Output checks, run after every operation outside its timed region.

Each check returns None when the output is right, or a one-line reason.
"""

import hashlib
import json
import math

REPORT_KEYS = {
    "fit-charge": {"v_oc_v", "r_eq_ohm", "capacitance_f", "tau_s",
                   "mean_abs_residual_v", "n_samples"},
    "predict-charge": {"v_oc_v", "r_eq_ohm", "capacitance_f", "tau_s",
                       "horizon_s", "v_at_horizon_v", "n_points"},
    "ocv": {"p_dbm", "v_oc_v", "clamped"},
    "fit-power": {"alpha1_dbm", "alpha2_dbm", "alpha3_per_ma", "alpha4_ma",
                  "rms_error_db", "n_points"},
    "packet-cost": {"msdu_octets", "data_rate_bps", "vcc_v",
                    "supply_current_ma", "system_power_mw", "wake_time_s",
                    "airtime_s", "preamble_time_s", "effective_fraction",
                    "wake_energy_uj", "sleep_energy_uj",
                    "interpacket_overhead_uj", "tx_power_dbm"},
    "simulate-burst": {"n_packets", "capacitance_f", "v_init_v", "v_final_v",
                       "e_total_uj", "e_wake_uj", "e_protocol_uj", "e_msdu_uj",
                       "e_interpacket_uj", "e_sleep_uj"},
    "plan-cycle": {"n_packets", "capacitance_f", "v_init_v", "cutoff_v",
                   "v_final_v", "e_total_uj", "active_time_s",
                   "recharge_time_s", "cycle_time_s", "duty_cycle"},
}

# Largest relative error of a number printed to 6 significant digits.
REPORT_ROUNDING = 5e-6
# Conservation must hold to float rounding on unrounded values.
FLOAT_ROUNDING = 1e-12

# Fit tolerances, over three times the worst error seen over 500 seeds of
# the generators at their smallest inputs (50-row traces, 18-point
# calibrations). Relative, except alpha1 (dB) and alpha4 (mA).
CHARGE_TOL = {"v_oc": 0.005, "r_ohm": 0.01}
POWER_TOL = {"alpha1": 0.3, "alpha2": 0.02, "alpha3": 0.05, "alpha4": 0.15}


def digest(report: bytes, paths=()) -> str:
    h = hashlib.blake2b(report)
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def count_rows(path) -> int:
    """Data rows of a CSV file with one header line."""
    with open(path, "rb") as handle:
        return sum(b.count(b"\n") for b in iter(lambda: handle.read(1 << 20), b"")) - 1


def conservation(v0, v_final, energy_j, capacitance, rounding) -> str | None:
    """v_final^2 = v0^2 - 2E/C, to the rounding of the values compared."""
    drop = 2.0 * energy_j / capacitance
    residual = v_final * v_final - (v0 * v0 - drop)
    tol = rounding * (2.0 * v_final * v_final + 2.0 * drop) + FLOAT_ROUNDING * v0 * v0
    if not abs(residual) <= tol:
        return f"conservation residual {residual:.3g} V^2 exceeds {tol:.3g}"
    return None


def _rel(got, want, tol, what) -> str | None:
    if not abs(got - want) <= tol * abs(want):
        return f"{what} {got:.6g} not within {tol:.0%} of {want:.6g}"
    return None


def _abs(got, want, tol, what) -> str | None:
    if not abs(got - want) <= tol:
        return f"{what} {got:.6g} not within {tol} of {want:.6g}"
    return None


class Checker:
    """Checks outputs against the generating parameters.

    ``rb`` is the imported rfbudget package; the planner check calls its
    ``burst_energy`` directly. Outputs of repeated operations must be
    byte-identical to the first run of the same operation.
    """

    def __init__(self, rb, config_path):
        self.rb = rb
        config = rb.load_config(config_path)
        self.profile, self.layout = config.profile, config.layout
        self.brownout_v = config.brownout_v
        self._first: dict = {}

    def repeat(self, key, value) -> str | None:
        first = self._first.setdefault(key, value)
        return None if first == value else "output differs from an earlier run of the same operation"

    def planner_answer(self, q: dict, n: int) -> str | None:
        """N fits and N+1 does not, unless N is cap_n."""
        rb = self.rb
        template = rb.PacketPlan(q["msdu_octets"], q["tx_dbm"], q["rate_bps"])
        initial = rb.EscState(q["capacitance_f"], q["v0"])

        def feasible(k: int) -> bool:
            try:
                report = rb.burst_energy([template] * k, initial, self.profile,
                                         self.layout, include_final_gap=q["final_gap"],
                                         brownout_v=None, record_samples=False)
            except rb.EscDepletedError:
                return False
            return report.final_state.voltage >= q["cutoff_v"]

        if n > 0 and not feasible(n):
            return f"planner answer {n} packets is infeasible"
        if n < q["cap_n"] and feasible(n + 1):
            return f"planner answer {n} packets, but {n + 1} also fit"
        return None

    def cycle_plan(self, q: dict, plan) -> str | None:
        """An in-process cycle_report result."""
        if plan.burst is None:
            return self.planner_answer(q, 0)
        burst = plan.burst
        return (conservation(q["v0"], burst.final_state.voltage,
                             burst.total_energy_uj * 1e-6, q["capacitance_f"],
                             0.0)
                or self.planner_answer(q, plan.n_packets))

    def report(self, op: dict, text: bytes) -> str | None:
        """A CLI report (already known to have exited 0)."""
        kind, params = op["kind"], op["params"]
        try:
            record = json.loads(text)
        except ValueError:
            return "report is not JSON"
        if not isinstance(record, dict) or set(record) != REPORT_KEYS[kind]:
            return f"report keys {sorted(record) if isinstance(record, dict) else record!r} are not the {kind} keys"
        return getattr(self, "_" + kind.replace("-", "_"))(params, record)

    def _fit_charge(self, p, r):
        return (_rel(r["r_eq_ohm"], p["r_ohm"], CHARGE_TOL["r_ohm"], "r_eq")
                or _rel(r["v_oc_v"], p["v_oc"], CHARGE_TOL["v_oc"], "v_oc")
                or (None if r["n_samples"] == p["rows"] else "n_samples is wrong"))

    def _predict_charge(self, p, r):
        want = -p["v_oc"] * math.expm1(-p["horizon_s"] / p["tau"])
        return _rel(r["v_at_horizon_v"], want, 2 * REPORT_ROUNDING, "v_at_horizon")

    def _ocv(self, p, r):
        if not (isinstance(r["clamped"], bool) and r["v_oc_v"] > 0):
            return "ocv report out of range"
        return None

    def _fit_power(self, p, r):
        a1, a2, a3, a4 = p["coeffs"]
        return (_abs(r["alpha1_dbm"], a1, POWER_TOL["alpha1"], "alpha1")
                or _rel(r["alpha2_dbm"], a2, POWER_TOL["alpha2"], "alpha2")
                or _rel(r["alpha3_per_ma"], a3, POWER_TOL["alpha3"], "alpha3")
                or _abs(r["alpha4_ma"], a4, POWER_TOL["alpha4"], "alpha4")
                or (None if r["n_points"] == p["points"] else "n_points is wrong"))

    def _packet_cost(self, p, r):
        return (_rel(r["supply_current_ma"], p["current_ma"], 2 * REPORT_ROUNDING,
                     "supply current")
                or _rel(r["system_power_mw"], p["vcc"] * p["current_ma"],
                        3 * REPORT_ROUNDING, "system power"))

    def _simulate_burst(self, p, r):
        if r["n_packets"] != len(p["plan"]):
            return "n_packets is wrong"
        if r["v_final_v"] < self.brownout_v:
            return "burst ended below brown-out"
        return conservation(p["v0"], r["v_final_v"], r["e_total_uj"] * 1e-6,
                            p["capacitance_f"], REPORT_ROUNDING)

    def _plan_cycle(self, p, r):
        return (conservation(p["v0"], r["v_final_v"], r["e_total_uj"] * 1e-6,
                             p["capacitance_f"], REPORT_ROUNDING)
                or self.planner_answer(p, r["n_packets"]))

    def burst_tables(self, op: dict, packets_csv, samples_csv) -> str | None:
        """Row counts of the per-packet and per-bit CSV files."""
        plan = op["params"]["plan"]
        if count_rows(packets_csv) != len(plan):
            return "packets CSV has the wrong number of rows"
        bits = sum(self.layout.frame_bits(msdu) for msdu, _, _ in plan)
        if count_rows(samples_csv) != bits:
            return "samples CSV has the wrong number of rows"
        return None
