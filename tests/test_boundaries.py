"""Every public function and record rejects a non-finite or mistyped
number, and a fractional count or one too large for a float, with a
ValueError.

The table gives each callable a valid set of keyword arguments. Every
argument whose valid value is a float is a number; every one whose valid
value is an int is a count. Other arguments (records, sequences, flags)
are left as they are.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfbudget import (CalibrationPoint, ChargeModel, DeviceProfile, EscState,
                      FrameLayout, OcvTable, PacketPlan, RunConfig,
                      VoltageSample, bit_energy_closed_form,
                      bit_energy_oracle, burst_energy, charge_voltage,
                      current_from_tx_power, cycle_report, first_bit_energy,
                      fit_charge_model, fit_r_known_voc, fit_sigmoid,
                      interpacket_overhead, load_config, max_packets,
                      packet_airtime, protocol_overhead,
                      recharge_plan, segment_energy, sleep_energy,
                      system_power, time_to_voltage, tx_power_from_current,
                      wakeup_energy, wakeup_time)
from conftest import (ALPHA1, ALPHA2, ALPHA3, ALPHA4, REF_CAP_F,
                      REF_CURRENT_MA, REF_RATE_BPS, REF_TX_DBM, REF_V0)

PROFILE = DeviceProfile(alpha1=ALPHA1, alpha2=ALPHA2, alpha3=ALPHA3,
                        alpha4=ALPHA4)
LAYOUT = FrameLayout()
TABLE = OcvTable.p2110()
MODEL = ChargeModel(v_oc=3.0, r_eq=800.0, capacitance=REF_CAP_F)
INITIAL = EscState(capacitance=REF_CAP_F, voltage=REF_V0)
PLAN = PacketPlan(msdu_octets=106, tx_power=REF_TX_DBM, data_rate=REF_RATE_BPS)
SAMPLES = [VoltageSample(t, charge_voltage(MODEL, t))
           for t in (0.0, 0.05, 0.1, 0.2, 0.4)]
POINTS = [CalibrationPoint(c, tx_power_from_current(PROFILE, c))
          for c in (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0)]
CONFIG = load_config()._replace(capacitance_f=REF_CAP_F,
                                initial_voltage_v=REF_V0)
# One full packet from INITIAL ends below CUTOFF_V, so cycle_report plans
# no burst; it must still check its brown-out level. BROWNOUT_V is low
# enough that burst_energy raises no warning.
CUTOFF_V = 1.8
BROWNOUT_V = 0.5

RATE = dict(supply_current_ma=REF_CURRENT_MA, data_rate=REF_RATE_BPS)


def fields(record) -> dict:
    return {name: getattr(record, name) for name in record._fields}


def ocv_points(p_dbm, v_oc_v):
    return OcvTable([(-14.0, 0.4), (p_dbm, v_oc_v)])


BOUNDARIES = [
    (DeviceProfile, fields(PROFILE)),
    (FrameLayout, fields(LAYOUT)),
    (EscState, fields(INITIAL)),
    (PacketPlan, fields(PLAN)),
    (ChargeModel, fields(MODEL)),
    (VoltageSample, fields(SAMPLES[1])),
    (CalibrationPoint, fields(POINTS[0])),
    (RunConfig, fields(CONFIG)),
    (ocv_points, dict(p_dbm=-2.0, v_oc_v=4.0)),
    (TABLE.voltage_at, dict(p_dbm=-7.0)),
    (TABLE.clamps, dict(p_dbm=-7.0)),
    (charge_voltage, dict(model=MODEL, t=0.5)),
    (time_to_voltage, dict(model=MODEL, v_target=2.0)),
    (fit_charge_model, dict(samples=SAMPLES, capacitance=REF_CAP_F)),
    (fit_r_known_voc, dict(samples=SAMPLES, capacitance=REF_CAP_F, v_oc=3.0)),
    (tx_power_from_current, dict(profile=PROFILE, supply_current_ma=10.0)),
    (current_from_tx_power, dict(profile=PROFILE, tx_power_dbm=REF_TX_DBM)),
    (system_power, dict(v_cc=2.5, supply_current_ma=10.0)),
    (fit_sigmoid, dict(points=POINTS)),
    (wakeup_time, dict(profile=PROFILE, msdu_octets=10)),
    (wakeup_energy, dict(profile=PROFILE, v_cc=2.5, msdu_octets=10)),
    (sleep_energy, dict(profile=PROFILE, v_cc=2.5, supply_current_ma=10.0)),
    (interpacket_overhead, dict(profile=PROFILE, v_end=2.5,
                                supply_current_ma=10.0)),
    (packet_airtime, dict(layout=LAYOUT, msdu_octets=10,
                          data_rate=REF_RATE_BPS)),
    (first_bit_energy, dict(v_start=REF_V0, **RATE)),
    (bit_energy_closed_form, dict(e_first_uj=0.16, bit_index=3,
                                  capacitance=REF_CAP_F, **RATE)),
    (bit_energy_oracle, dict(v_start=REF_V0, capacitance=REF_CAP_F,
                             n_bits=8, **RATE)),
    (segment_energy, dict(v_start=REF_V0, n_bits=8, capacitance=REF_CAP_F,
                          **RATE)),
    (protocol_overhead, dict(layout=LAYOUT, msdu_octets=10, v_start=REF_V0,
                             capacitance=REF_CAP_F, **RATE)),
    (burst_energy, dict(plans=[PLAN], initial=INITIAL, profile=PROFILE,
                        layout=LAYOUT, brownout_v=BROWNOUT_V)),
    (max_packets, dict(initial=INITIAL, v_cutoff=CUTOFF_V, template=PLAN,
                       profile=PROFILE, layout=LAYOUT, cap_n=2)),
    (recharge_plan, dict(model=MODEL, v_low=1.0, v_high=2.5)),
    (cycle_report, dict(model=MODEL, initial=INITIAL, v_cutoff=CUTOFF_V,
                        template=PLAN, profile=PROFILE, layout=LAYOUT,
                        cap_n=2, brownout_v=BROWNOUT_V)),
]

CASES = [(func, base, arg) for func, base in BOUNDARIES
         for arg, value in base.items() if type(value) in (int, float)]
IDS = [f"{func.__qualname__}-{arg}" for func, _, arg in CASES]

NOT_NUMBERS = [math.nan, math.inf, -math.inf, True, "1"]
# An integer too large for a float is neither a finite number nor a count:
# every count ends up in float arithmetic.
BAD_NUMBERS = NOT_NUMBERS + [10**400]
BAD_COUNTS = NOT_NUMBERS + [2.5, 10**400]


@pytest.mark.parametrize("func, base",
                         [pytest.param(f, b, id=f.__qualname__)
                          for f, b in BOUNDARIES])
def test_boundary_table_bases_are_valid(func, base):
    result = func(**base)
    if isinstance(result, float):
        assert math.isfinite(result)


@pytest.mark.parametrize("func, base, arg", CASES, ids=IDS)
@settings(deadline=None)
@given(data=st.data())
def test_public_boundaries_reject_bad_numbers_and_counts(func, base, arg,
                                                         data):
    bad = data.draw(st.sampled_from(
        BAD_COUNTS if type(base[arg]) is int else BAD_NUMBERS))
    with pytest.raises(ValueError):
        func(**{**base, arg: bad})
