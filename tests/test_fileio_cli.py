import argparse
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfbudget import (ChargeModel, DeviceProfile, FrameLayout, OcvTable,
                      RfBudgetError, RunConfig, TraceParseError,
                      charge_voltage, load_calibration, load_config,
                      load_ocv_table, load_plan, load_voltage_trace)
from rfbudget.burst import DEFAULT_BROWNOUT_V
from rfbudget.cli import build_parser, main
from rfbudget.fileio import (CALIBRATION_HEADER, OCV_HEADER, PLAN_HEADER,
                             TRACE_HEADER, _DEVICE_KEYS, _ESC_KEYS,
                             _FRAME_KEYS, render_record_csv,
                             render_record_json, write_table)
from conftest import ALPHA1, ALPHA2, ALPHA3, ALPHA4


# loaders ---------------------------------------------------------------------

def test_load_voltage_trace(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t_s,v_v\n0.0,0.0\n0.1,0.5\n0.2,0.9\n")
    samples = load_voltage_trace(path)
    assert len(samples) == 3
    assert samples[1].t == 0.1
    assert samples[2].v == 0.9


def test_load_voltage_trace_header_only(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t_s,v_v\n")
    assert load_voltage_trace(path) == []


def test_load_voltage_trace_negative_time_names_line(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t_s,v_v\n0.0,0.0\n-0.1,0.5\n")
    with pytest.raises(TraceParseError, match="line 3") as excinfo:
        load_voltage_trace(path)
    assert excinfo.value.line == 3


def test_load_voltage_trace_rejects_non_monotone(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t_s,v_v\n0.0,0.0\n0.2,0.5\n0.1,0.6\n")
    with pytest.raises(TraceParseError, match="non-monotone"):
        load_voltage_trace(path)


def test_load_voltage_trace_rejects_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time,volt\n0.0,0.0\n")
    with pytest.raises(TraceParseError, match="header"):
        load_voltage_trace(path)


def test_load_voltage_trace_rejects_bad_number(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t_s,v_v\n0.0,abc\n")
    with pytest.raises(TraceParseError, match="line 2"):
        load_voltage_trace(path)


def test_load_ocv_table(tmp_path):
    path = tmp_path / "ocv.csv"
    path.write_text("p_dbm,v_oc_v\n-14,0.4\n-7,2.0\n-2,4.0\n")
    table = load_ocv_table(path)
    assert table.voltage_at(-7.0) == 2.0


def test_load_calibration(tmp_path):
    path = tmp_path / "cal.csv"
    path.write_text("c_c_ma,p_t_dbm\n5.0,-20.0\n10.0,-5.0\n")
    points = load_calibration(path)
    assert len(points) == 2
    assert points[0].supply_current == 5.0


def test_load_plan(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text("msdu_octets,p_t_dbm,r_d_bps\n106,3.5,250000\n10,0.0,1000000\n")
    plans = load_plan(path)
    assert plans[0].msdu_octets == 106
    assert plans[1].data_rate == 1e6


def test_load_plan_rejects_fractional_octets(tmp_path):
    path = tmp_path / "plan.csv"
    path.write_text("msdu_octets,p_t_dbm,r_d_bps\n10.5,3.5,250000\n")
    with pytest.raises(TraceParseError, match="integer"):
        load_plan(path)


def test_load_ocv_table_names_the_line_of_a_bad_step(tmp_path):
    path = tmp_path / "ocv.csv"
    path.write_text("p_dbm,v_oc_v\n-14,0.4\n-7,2.0\n-9,3.0\n-2,4.0\n")
    with pytest.raises(TraceParseError, match="line 4: OCV table points") \
            as excinfo:
        load_ocv_table(path)
    assert excinfo.value.line == 4


# More characters than the csv module reads into one field.
BIG_FIELD = b"1" * 131_073
LOADERS = [(load_voltage_trace, TRACE_HEADER), (load_ocv_table, OCV_HEADER),
           (load_calibration, CALIBRATION_HEADER), (load_plan, PLAN_HEADER)]
# Finite numbers at the ends of the float range: the smallest subnormal,
# tiny and huge normals, and a value near the largest float.
FINITE_EXTREMES = (5e-324, 1e-300, 1e300, 1.7e308)
CSV_FIELDS = st.one_of(
    st.floats().map(lambda x: repr(x).encode()),
    st.sampled_from(FINITE_EXTREMES).map(lambda x: repr(x).encode()),
    st.integers(-300, 300).map(lambda n: str(n).encode()),
    st.sampled_from([b"", b" ", b'"', b'""', b'"1,2"', b'"1\n2"', b"\r",
                     b"\x00", b"\xff\xfe", b"nan", b"1e400", b"t_s",
                     BIG_FIELD]),
    st.binary(max_size=6))
CSV_ROWS = st.lists(st.lists(CSV_FIELDS, max_size=4).map(b",".join),
                    max_size=6)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("load, header", LOADERS,
                         ids=[load.__name__ for load, _ in LOADERS])
@settings(max_examples=50, deadline=None)
@given(head=st.sampled_from(["right", "wrong", "missing"]), rows=CSV_ROWS,
       end=st.sampled_from([b"\n", b"\r\n", b"\r"]))
@example(head="right", rows=[b"1," + BIG_FIELD], end=b"\n")
def test_any_csv_gives_a_result_or_a_line_numbered_parse_error(
        scratch, load, header, head, rows, end):
    first = {"right": [",".join(header).encode()], "wrong": [b"a,b"],
             "missing": []}[head]
    path = scratch / "input.csv"
    path.write_bytes(b"".join(line + end for line in first + rows))
    try:
        load(path)
    except TraceParseError as exc:
        assert exc.line is not None and exc.line >= 1
        assert str(exc).startswith(f"{path}: ")


# config ----------------------------------------------------------------------

def test_default_config_pins_device_constants():
    config = load_config()
    assert config.profile.wake_slope == 0.004
    assert config.profile.wake_intercept == 1.395
    assert config.profile.wake_current == 7.8
    assert config.profile.sleep_time == 0.45
    assert config.profile.txrx_off_current == 4.0
    assert config.profile.txrx_on_time == 0.86
    assert config.profile.txrx_on_current == 10.25
    assert config.profile.txrx_off_time == 0.2
    assert not config.profile.has_sigmoid
    assert config.layout.overhead_psdu_octets == 21
    assert config.layout.preamble_bits == 48
    assert config.layout.max_msdu_octets == 106
    assert config.layout.preamble_rate == 250e3
    assert len(config.ocv_table) == 7
    assert config.ocv_table.voltage_at(-14.0) == 0.4
    assert config.ocv_table.voltage_at(-2.0) == 4.0
    assert config.brownout_v == 1.8
    assert config.include_final_gap is True


def test_user_config_overlay(tmp_path):
    user = tmp_path / "config.json"
    user.write_text(json.dumps({
        "device": {"alpha1_dbm": ALPHA1, "alpha2_dbm": ALPHA2,
                   "alpha3_per_ma": ALPHA3, "alpha4_ma": ALPHA4,
                   "wake_current_ma": 8.0},
        "esc": {"capacitance_f": 0.12e-3, "initial_voltage_v": 2.5},
        "brownout_v": 1.6,
    }))
    config = load_config(user)
    assert config.profile.has_sigmoid
    assert config.profile.alpha1 == ALPHA1
    assert config.profile.wake_current == 8.0
    assert config.profile.wake_slope == 0.004  # untouched default
    assert config.capacitance_f == 0.12e-3
    assert config.brownout_v == 1.6


def test_user_config_rejects_unknown_key(tmp_path):
    user = tmp_path / "config.json"
    user.write_text(json.dumps({"device": {"wake_slope": 0.004}}))
    with pytest.raises(ValueError, match="unknown device config key"):
        load_config(user)


def test_default_config_is_the_record_defaults():
    config = load_config()
    assert config.profile == DeviceProfile()
    assert config.layout == FrameLayout()
    assert config.ocv_table.points == OcvTable.p2110().points
    assert config.brownout_v == DEFAULT_BROWNOUT_V
    assert config.include_final_gap is True
    assert config.capacitance_f is None
    assert config.initial_voltage_v is None


def test_user_config_names_the_first_bad_value_in_file_order(tmp_path):
    user = tmp_path / "config.json"
    user.write_text(json.dumps({"device": {"txrx_on_current_ma": "a",
                                           "wake_slope_ms_per_octet": "b"}}))
    with pytest.raises(ValueError, match="'txrx_on_current_ma'"):
        load_config(user)


def nested(depth: int, kind: str) -> str:
    if kind == "list":
        return "[" * depth + "]" * depth
    return '{"k": ' * depth + "0" + "}" * depth


DEEP_LIST = nested(100_000, "list")
JSON_VALUES = st.one_of(
    st.recursive(
        st.none() | st.booleans() | st.floats() | st.integers()
        | st.sampled_from(FINITE_EXTREMES) | st.just(10**400)
        | st.text(max_size=4),
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=3), inner,
                                         max_size=3)),
        max_leaves=8).map(json.dumps),
    st.builds(nested, st.sampled_from([2, 60, 900, 5_000, 100_000]),
              st.sampled_from(["list", "object"])),
    st.just("1" + "0" * 5_000))  # more digits than int() will convert


def json_object(items: dict) -> str:
    return "{" + ", ".join(f"{json.dumps(key)}: {value}"
                           for key, value in items.items()) + "}"


CONFIG_SECTIONS = {"device": _DEVICE_KEYS, "frame": _FRAME_KEYS,
                   "esc": _ESC_KEYS, "ocv_table": OCV_HEADER}
CONFIG_TEXTS = st.fixed_dictionaries({}, optional={
    **{name: JSON_VALUES | st.dictionaries(st.sampled_from(sorted(keys)),
                                           JSON_VALUES).map(json_object)
       for name, keys in CONFIG_SECTIONS.items()},
    **{key: JSON_VALUES
       for key in ("brownout_v", "include_final_gap", "description")},
}).map(json_object)


@settings(max_examples=80, deadline=None)
@given(text=CONFIG_TEXTS)
@example(text=DEEP_LIST)
@example(text=json_object({"description": DEEP_LIST}))
def test_any_json_config_gives_a_config_or_an_error(scratch, text):
    path = scratch / "config.json"
    path.write_text(text)
    try:
        assert isinstance(load_config(path), RunConfig)
    except (ValueError, RfBudgetError):
        pass


@pytest.mark.parametrize("text", [DEEP_LIST,
                                  json_object({"description": DEEP_LIST})],
                         ids=["top-level", "description"])
def test_config_that_nests_too_deeply_is_an_error_naming_the_path(tmp_path,
                                                                  text):
    with pytest.raises(ValueError, match="config.json: config nests too "
                                         "deeply"):
        load_config(write_config_text(tmp_path, text))


UNPARSABLE_CONFIGS = [b'{"device": ', b'{"device": {"wake_current_ma": \xff}}']
UNPARSABLE_IDS = ["truncated-json", "byte-0xff"]


@pytest.mark.parametrize("content", UNPARSABLE_CONFIGS, ids=UNPARSABLE_IDS)
def test_config_that_does_not_parse_is_an_error_naming_the_path(tmp_path,
                                                                content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    with pytest.raises(ValueError) as excinfo:
        load_config(path)
    assert str(excinfo.value).startswith(f"{path}: ")


def write_config_text(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    return str(path)


# CLI -------------------------------------------------------------------------

def sigmoid_config(tmp_path, **extra):
    path = tmp_path / "config.json"
    body = {"device": {"alpha1_dbm": ALPHA1, "alpha2_dbm": ALPHA2,
                       "alpha3_per_ma": ALPHA3, "alpha4_ma": ALPHA4}}
    body.update(extra)
    path.write_text(json.dumps(body))
    return str(path)


def run_cli(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_cli_packet_cost_golden(capsys):
    status, out, err = run_cli(capsys, [
        "packet-cost", "--msdu-octets", "106", "--data-rate-bps", "250000",
        "--vcc-v", "2.0", "--current-ma", "16.24"])
    assert status == 0, err
    record = json.loads(out)
    assert record["wake_time_s"] == pytest.approx(1.819e-3, rel=1e-6)
    assert record["airtime_s"] == pytest.approx(4256e-6, rel=1e-6)
    assert record["preamble_time_s"] == pytest.approx(192e-6, rel=1e-6)
    assert record["effective_fraction"] == pytest.approx(0.797, abs=1e-3)
    assert record["wake_energy_uj"] == pytest.approx(28.38, abs=0.01)


def test_cli_packet_cost_rejects_a_payload_the_frame_cannot_carry(capsys):
    status, out, err = run_cli(capsys, [
        "packet-cost", "--msdu-octets", "500", "--data-rate-bps", "250000",
        "--vcc-v", "2", "--current-ma", "10"])
    assert (status, out) == (1, "")
    assert err == ("error: msdu_octets 500 exceeds the layout maximum "
                   "106\n")


def test_cli_packet_cost_tx_power_needs_coefficients(capsys):
    status, out, err = run_cli(capsys, [
        "packet-cost", "--msdu-octets", "10", "--data-rate-bps", "250000",
        "--vcc-v", "2.0", "--tx-power-dbm", "0.0"])
    assert status == 1
    assert "sigmoid" in err


def test_cli_packet_cost_tx_power_with_config(tmp_path, capsys):
    config = sigmoid_config(tmp_path)
    status, out, err = run_cli(capsys, [
        "packet-cost", "--config", config, "--msdu-octets", "10",
        "--data-rate-bps", "250000", "--vcc-v", "2.5",
        "--tx-power-dbm", "3.5"])
    assert status == 0, err
    record = json.loads(out)
    assert record["supply_current_ma"] == pytest.approx(16.24, rel=1e-4)


def test_cli_ocv(capsys):
    status, out, err = run_cli(capsys, ["ocv", "--p-dbm", "-12.65"])
    assert status == 0
    record = json.loads(out)
    assert record["v_oc_v"] == pytest.approx(0.65, rel=1e-6)
    assert record["clamped"] is False
    status, out, _ = run_cli(capsys, ["ocv", "--p-dbm", "-20"])
    record = json.loads(out)
    assert record["v_oc_v"] == 0.4
    assert record["clamped"] is True


def test_cli_fit_charge_round_trip(tmp_path, capsys):
    truth = ChargeModel(v_oc=2.6, r_eq=170.6, capacitance=2.2e-3)
    trace = tmp_path / "trace.csv"
    lines = ["t_s,v_v"]
    for t in np.linspace(0.05, 1.2, 15):
        lines.append(f"{t:.6f},{charge_voltage(truth, float(t)):.9f}")
    trace.write_text("\n".join(lines) + "\n")
    status, out, err = run_cli(capsys, [
        "fit-charge", "--trace", str(trace), "--capacitance-f", "0.0022"])
    assert status == 0, err
    record = json.loads(out)
    assert record["v_oc_v"] == pytest.approx(2.6, rel=1e-3)
    assert record["r_eq_ohm"] == pytest.approx(170.6, rel=1e-2)
    assert record["mean_abs_residual_v"] < 1e-4
    assert record["n_samples"] == 15


def test_cli_fit_charge_known_voc(tmp_path, capsys):
    truth = ChargeModel(v_oc=3.2, r_eq=3.7e3, capacitance=50e-3)
    trace = tmp_path / "trace.csv"
    lines = ["t_s,v_v"]
    for t in np.linspace(10.0, 400.0, 8):
        lines.append(f"{t:.6f},{charge_voltage(truth, float(t)):.9f}")
    trace.write_text("\n".join(lines) + "\n")
    status, out, err = run_cli(capsys, [
        "fit-charge", "--trace", str(trace), "--capacitance-f", "0.05",
        "--v-oc", "3.2"])
    assert status == 0, err
    record = json.loads(out)
    assert record["r_eq_ohm"] == pytest.approx(3.7e3, rel=1e-3)


def test_cli_fit_charge_on_its_lower_bound_is_one_error_line(tmp_path,
                                                           capsys):
    trace = trace_file(tmp_path, "0,0\n0.5,1.0\n1.0,1.6\n2.0,2.3\n")
    status, out, err = run_cli(capsys, [
        "fit-charge", "--trace", trace, "--capacitance-f", "1e300",
        "--v-oc", "3"])
    assert status == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "lower bound" in err


def test_cli_predict_charge_curve(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    status, out, err = run_cli(capsys, [
        "predict-charge", "--v-oc", "2.6", "--r-ohm", "170.6",
        "--capacitance-f", "0.0022", "--horizon-s", "2.0",
        "--points", "5", "--curve-csv", str(curve)])
    assert status == 0, err
    record = json.loads(out)
    assert record["tau_s"] == pytest.approx(0.37532, rel=1e-4)
    lines = curve.read_text().splitlines()
    assert lines[0] == "t_s,v_v"
    assert len(lines) == 6
    t_last, v_last = (float(x) for x in lines[-1].split(","))
    assert t_last == 2.0
    assert v_last == pytest.approx(record["v_at_horizon_v"], rel=1e-5)


PREDICT = ["predict-charge", "--v-oc", "2.6", "--r-ohm", "170.6",
           "--capacitance-f", "0.0022", "--horizon-s", "2.0"]


def counting_charge_voltage(monkeypatch):
    """Count the calls the CLI makes to ``charge_voltage``."""
    calls = []

    def counted(model, t):
        calls.append(t)
        return charge_voltage(model, t)
    monkeypatch.setattr("rfbudget.cli.charge_voltage", counted)
    return calls


def test_cli_predict_charge_report_samples_the_curve_once(monkeypatch,
                                                          capsys):
    calls = counting_charge_voltage(monkeypatch)
    status, out, err = run_cli(capsys, [*PREDICT, "--points", "1000"])
    assert status == 0, err
    assert calls == [2.0]
    assert json.loads(out)["n_points"] == 1000


def test_cli_predict_charge_streams_the_curve_rows(tmp_path, monkeypatch,
                                                   capsys):
    calls = counting_charge_voltage(monkeypatch)
    seen = []

    def consume(path, header, rows):
        for k, row in enumerate(rows, 1):
            assert len(calls) == k  # each row is computed as it is written
            seen.append(row)
    monkeypatch.setattr("rfbudget.cli.write_table", consume)
    status, out, err = run_cli(capsys, [*PREDICT, "--points", "50",
                                        "--curve-csv",
                                        str(tmp_path / "curve.csv")])
    assert status == 0, err
    assert len(seen) == 50 and seen[-1][0] == 2.0
    assert json.loads(out)["v_at_horizon_v"] == pytest.approx(seen[-1][1],
                                                              rel=1e-5)


def test_cli_predict_charge_rejects_a_horizon_whose_times_overflow(tmp_path,
                                                                  capsys):
    # 1e307 is finite, but horizon * i overflows from i = 18 of 101 points
    curve = tmp_path / "curve.csv"
    status, out, err = run_cli(capsys, [
        "predict-charge", "--v-oc", "3", "--r-ohm", "800",
        "--capacitance-f", "1e-3", "--horizon-s", "1e307",
        "--curve-csv", str(curve)])
    assert (status, out) == (1, "")
    assert err == ("error: --horizon-s * (--points - 1) must be a finite "
                   "number, got inf\n")
    assert not curve.exists()


def test_cli_fit_power(tmp_path, capsys):
    from rfbudget import DeviceProfile, tx_power_from_current
    truth = DeviceProfile(alpha1=4.0, alpha2=40.0, alpha3=0.5, alpha4=14.0)
    cal = tmp_path / "cal.csv"
    lines = ["c_c_ma,p_t_dbm"]
    for c in np.linspace(0.5, 30.0, 12):
        lines.append(f"{c:.4f},{tx_power_from_current(truth, float(c)):.6f}")
    cal.write_text("\n".join(lines) + "\n")
    status, out, err = run_cli(capsys, ["fit-power", "--calibration", str(cal)])
    assert status == 0, err
    record = json.loads(out)
    assert record["alpha1_dbm"] == pytest.approx(4.0, rel=1e-2)
    assert record["alpha4_ma"] == pytest.approx(14.0, rel=1e-2)
    assert record["rms_error_db"] < 0.01


def plan_file(tmp_path, rows):
    path = tmp_path / "plan.csv"
    lines = ["msdu_octets,p_t_dbm,r_d_bps"]
    lines.extend(f"{m},{p},{r}" for m, p, r in rows)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_cli_simulate_burst(tmp_path, capsys):
    config = sigmoid_config(tmp_path)
    plan = plan_file(tmp_path, [(106, 3.5, 250000), (106, 3.5, 250000)])
    packets_csv = tmp_path / "packets.csv"
    samples_csv = tmp_path / "samples.csv"
    status, out, err = run_cli(capsys, [
        "simulate-burst", "--config", config, "--plan", plan,
        "--capacitance-f", "0.00012", "--initial-v", "2.5",
        "--brownout-v", "0.0",
        "--packets-csv", str(packets_csv), "--samples-csv", str(samples_csv)])
    assert status == 0, err
    record = json.loads(out)
    assert record["n_packets"] == 2
    assert record["v_final_v"] < 2.5
    # conservation identity straight from the emitted record
    expected_v = math.sqrt(2.5 ** 2 - 2 * record["e_total_uj"] * 1e-6 / 0.00012)
    assert record["v_final_v"] == pytest.approx(expected_v, rel=1e-4)
    packet_lines = packets_csv.read_text().splitlines()
    assert len(packet_lines) == 3
    assert packet_lines[0].startswith("packet,msdu_octets")
    sample_lines = samples_csv.read_text().splitlines()
    assert len(sample_lines) == 1 + 2 * 1064


def test_cli_simulate_burst_empty_plan(tmp_path, capsys):
    config = sigmoid_config(tmp_path)
    plan = plan_file(tmp_path, [])
    status, out, err = run_cli(capsys, [
        "simulate-burst", "--config", config, "--plan", plan,
        "--capacitance-f", "0.00012", "--initial-v", "2.5"])
    assert status == 1
    assert "plan must contain >= 1 packet" in err


def test_cli_simulate_burst_requires_store_parameters(tmp_path, capsys):
    config = sigmoid_config(tmp_path)
    plan = plan_file(tmp_path, [(10, 0.0, 250000)])
    status, _, err = run_cli(capsys, [
        "simulate-burst", "--config", config, "--plan", plan])
    assert status == 1
    assert "--capacitance-f" in err


@pytest.mark.parametrize("argv", [
    ["packet-cost", "--msdu-octets", "0", "--data-rate-bps", "250000",
     "--vcc-v", "2.5", "--current-ma", "10"],
    ["plan-cycle", "--v-oc", "3.6", "--r-ohm", "800", "--cutoff-v", "1.8",
     "--capacitance-f", "0.0022", "--initial-v", "3.3", "--msdu-octets", "0",
     "--tx-power-dbm", "0", "--data-rate-bps", "250000", "--cap-n", "64"],
    ["simulate-burst", "--plan", "plan.csv", "--capacitance-f", "0.0022",
     "--initial-v", "3.3"],
], ids=["packet-cost", "plan-cycle", "simulate-burst"])
def test_cli_refuses_a_frame_of_no_bits_in_one_error_line(tmp_path, capsys,
                                                          monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    sigmoid_config(tmp_path, frame={
        "shr_octets": 0, "phr_octets": 0, "mhr_octets": 0, "fcs_octets": 0})
    plan_file(tmp_path, [(0, 0.0, 250000)])
    status, out, err = run_cli(capsys, [*argv, "--config", "config.json"])
    assert status == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "msdu_octets 0 leaves a frame of no bits" in err


def test_cli_plan_cycle(tmp_path, capsys):
    config = sigmoid_config(tmp_path)
    status, out, err = run_cli(capsys, [
        "plan-cycle", "--config", config, "--v-oc", "3.0", "--r-ohm", "800",
        "--capacitance-f", "0.00012", "--initial-v", "2.5",
        "--cutoff-v", "1.8", "--msdu-octets", "106",
        "--tx-power-dbm", "3.5", "--data-rate-bps", "250000",
        "--cap-n", "16"])
    assert status == 0, err
    record = json.loads(out)
    assert record["n_packets"] >= 0
    assert 0.0 <= record["duty_cycle"] <= 1.0
    assert record["cycle_time_s"] == pytest.approx(
        record["active_time_s"] + record["recharge_time_s"], rel=1e-5)
    if record["n_packets"] > 0:
        assert record["v_final_v"] >= 1.8


def test_cli_reports_are_deterministic(tmp_path, capsys):
    argv = ["packet-cost", "--msdu-octets", "42", "--data-rate-bps", "1000000",
            "--vcc-v", "2.71", "--current-ma", "13.37"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_unwritable_out_is_one_error_line(tmp_path, capsys):
    status, out, err = run_cli(capsys, [
        "ocv", "--p-dbm", "-5", "--out", str(tmp_path / "missing" / "x")])
    assert (status, out) == (1, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_cli_plan_cycle_cutoff_defaults_to_the_brownout_level():
    args = build_parser().parse_args([
        "plan-cycle", "--v-oc", "3", "--r-ohm", "800", "--msdu-octets", "10",
        "--tx-power-dbm", "0", "--data-rate-bps", "250000"])
    assert args.cutoff_v == DEFAULT_BROWNOUT_V


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("render", [render_record_json, render_record_csv])
def test_reports_reject_a_non_finite_value_naming_its_key(render, value):
    with pytest.raises(ValueError, match=f"report key 'airtime_s' is {value}, "
                                         "not a finite number"):
        render({"n_packets": 2, "airtime_s": value})


def test_tables_reject_a_non_finite_cell_naming_its_column(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="column 'v_v' is nan"):
        write_table(path, ("t_s", "v_v"), [(0.0, 1.0), (1.0, math.nan)])
    # The header and the rows before the bad one are not left behind.
    assert not path.exists()


def test_cli_csv_format(capsys):
    status, out, _ = run_cli(capsys, [
        "ocv", "--p-dbm", "-7", "--format", "csv"])
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "v_oc_v,2" in lines


def test_cli_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code != 0
    assert "usage" in capsys.readouterr().err


def test_cli_model_error_exit_status(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("t_s,v_v\n0.0,1.0\n0.1,1.0\n0.2,1.0\n")
    status, _, err = run_cli(capsys, [
        "fit-charge", "--trace", str(trace), "--capacitance-f", "0.0022"])
    assert status == 1
    assert "degenerate" in err


def write_config(tmp_path, body):
    return write_config_text(tmp_path, json.dumps(body))


def test_cli_config_ocv_table_needs_both_columns(tmp_path, capsys):
    partial = write_config(tmp_path, {"ocv_table": {"p_dbm": [-10, -5, 0]}})
    status, out, err = run_cli(capsys, ["ocv", "--config", partial,
                                        "--p-dbm", "-5"])
    assert (status, out) == (1, "")
    assert err.startswith("error:") and "ocv_table" in err
    # a complete user table replaces the default whole
    table = write_config(tmp_path, {"ocv_table": {"p_dbm": [-10, 0],
                                                  "v_oc_v": [1.0, 2.0]}})
    status, out, err = run_cli(capsys, ["ocv", "--config", table,
                                        "--p-dbm", "-5"])
    assert status == 0, err
    assert json.loads(out)["v_oc_v"] == 1.5


@pytest.mark.parametrize("make_argv", [
    lambda tmp_path: ["fit-charge", "--capacitance-f", "0.0022", "--trace",
                      trace_file(tmp_path, "0.0," + "1" * 131_073 + "\n")],
    lambda tmp_path: ["ocv", "--p-dbm", "-5", "--config",
                      write_config_text(tmp_path, DEEP_LIST)],
    lambda tmp_path: ["ocv", "--p-dbm", "-5", "--config", write_config_text(
        tmp_path, json_object({"description": DEEP_LIST}))],
], ids=["large-csv-field", "nested-config", "nested-description"])
def test_cli_unparsable_input_is_one_error_line(tmp_path, capsys, make_argv):
    status, out, err = run_cli(capsys, make_argv(tmp_path))
    assert (status, out) == (1, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("content", UNPARSABLE_CONFIGS, ids=UNPARSABLE_IDS)
def test_cli_config_that_does_not_parse_is_one_error_line_naming_it(
        tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    status, out, err = run_cli(capsys, ["ocv", "--p-dbm", "-5",
                                        "--config", str(path)])
    assert (status, out) == (1, "")
    assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1


def test_cli_ocv_table_whose_step_overflows_is_an_error(tmp_path, capsys):
    table = tmp_path / "big.csv"
    table.write_text("p_dbm,v_oc_v\n-1e308,-1e308\n1e308,1e308\n")
    status, out, err = run_cli(capsys, ["ocv", "--p-dbm", "0",
                                        "--table", str(table)])
    assert (status, out) == (1, "")
    assert err.startswith("error:") and "overflows" in err


@pytest.mark.parametrize("body", [[1, 2], {"device": []}])
def test_cli_config_rejects_non_object(tmp_path, capsys, body):
    status, out, err = run_cli(capsys, ["ocv", "--config",
                                        write_config(tmp_path, body),
                                        "--p-dbm", "-5"])
    assert (status, out) == (1, "")
    assert err.startswith("error:") and "object" in err


@pytest.mark.parametrize("value", ["abc", True, None,
                                   pytest.param(10**400, id="huge-int")])
def test_cli_config_rejects_non_numeric_device_value(tmp_path, capsys, value):
    config = write_config(tmp_path,
                          {"device": {"wake_slope_ms_per_octet": value}})
    status, out, err = run_cli(capsys, ["ocv", "--config", config,
                                        "--p-dbm", "-5"])
    assert (status, out) == (1, "")
    assert err.startswith("error:") and "wake_slope_ms_per_octet" in err


STORE = ["--capacitance-f", "0.00012", "--initial-v", "2.5"]


@pytest.mark.parametrize("body, key", [
    ({"esc": {"capacitance_f": "abc", "initial_voltage_v": 2.5}},
     "capacitance_f"),
    ({"esc": {"capacitance_f": 0.00012, "initial_voltage_v": float("nan")}},
     "initial_voltage_v"),
    ({"brownout_v": "x"}, "brownout_v"),
    ({"brownout_v": float("inf")}, "brownout_v"),
    ({"include_final_gap": "no"}, "include_final_gap"),
    ({"include_final_gap": 0}, "include_final_gap"),
    ({"frame": {"shr_octets": 5.5}}, "shr_octets"),
    ({"device": {"wake_current_ma": float("nan")}}, "wake_current_ma"),
    ({"esc": {"capacitance": 0.00012, "initial_voltage_v": 2.5}},
     "'capacitance'"),
    ({"brownout_volts": 1.6}, "'brownout_volts'"),
])
def test_cli_config_rejects_bad_store_and_burst_values(tmp_path, capsys,
                                                       body, key):
    config = sigmoid_config(tmp_path, **body)
    plan = plan_file(tmp_path, [(10, 0.0, 250000)])
    status, out, err = run_cli(capsys, ["simulate-burst", "--config", config,
                                        "--plan", plan])
    assert (status, out) == (1, "")
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err


BROWNOUT_LINE = ("warning: supply voltage reached 1.103 V, below the 1.80 V "
                 "brown-out level; the device constants are unvalidated "
                 "down there\n")


def test_cli_prints_the_brownout_warning_as_one_line(tmp_path, capsys):
    config = sigmoid_config(tmp_path)
    plan = plan_file(tmp_path, [(106, 3.5, 250000)] * 2)
    for argv in (["simulate-burst", "--plan", plan],
                 ["plan-cycle", "--v-oc", "3.0", "--r-ohm", "800",
                  "--cutoff-v", "0.5", "--msdu-octets", "106",
                  "--tx-power-dbm", "3.5", "--data-rate-bps", "250000"]):
        status, _, err = run_cli(capsys, [*argv, "--config", config, *STORE])
        assert (status, err) == (0, BROWNOUT_LINE)


def test_cli_config_null_brownout_disables_the_warning(tmp_path, capsys):
    config = sigmoid_config(tmp_path, brownout_v=None)
    plan = plan_file(tmp_path, [(106, 3.5, 250000)] * 2)
    status, out, err = run_cli(capsys, ["simulate-burst", "--config", config,
                                        "--plan", plan, *STORE])
    assert (status, err) == (0, "")
    assert json.loads(out)["v_final_v"] < 1.8


@pytest.mark.parametrize("make_argv, key", [
    (lambda tmp_path: ["packet-cost", "--msdu-octets", "10",
                       "--data-rate-bps", "inf", "--vcc-v", "2.5",
                       "--current-ma", "10"], "data_rate"),
    (lambda tmp_path: ["simulate-burst", "--config", sigmoid_config(tmp_path),
                       "--plan", plan_file(tmp_path, [(10, 0.0, 250000)]),
                       "--capacitance-f", "0.00012", "--initial-v", "inf"],
     "initial_voltage_v"),
    (lambda tmp_path: ["simulate-burst", "--config", sigmoid_config(tmp_path),
                       "--plan", plan_file(tmp_path, [(10, 0.0, 250000)]),
                       *STORE, "--brownout-v", "nan"], "brownout_v"),
    (lambda tmp_path: ["simulate-burst", "--config", sigmoid_config(tmp_path),
                       "--plan", plan_file(tmp_path, [(10, "nan", 250000)]),
                       *STORE], "tx_power"),
    (lambda tmp_path: ["simulate-burst", "--config", sigmoid_config(tmp_path),
                       "--plan", plan_file(tmp_path, [(10, 0.0, "inf")]),
                       *STORE], "data_rate"),
    (lambda tmp_path: ["fit-charge", "--capacitance-f", "0.0022", "--trace",
                       trace_file(tmp_path, "0.0,0.0\n0.1,nan\n0.2,0.9\n")],
     "sample voltage"),
    (lambda tmp_path: ["fit-charge", "--capacitance-f", "0.0022", "--trace",
                       trace_file(tmp_path, "0.0,0.0\ninf,0.5\n")],
     "sample time"),
    (lambda tmp_path: ["predict-charge", "--v-oc", "3", "--r-ohm", "inf",
                       "--capacitance-f", "0.00012", "--horizon-s", "1"],
     "r_eq"),
    (lambda tmp_path: ["fit-power", "--calibration",
                       calibration_file(tmp_path, "5.0,-20.0\n10.0,nan\n")],
     "tx_power"),
    (lambda tmp_path: ["packet-cost", "--msdu-octets", "10",
                       "--data-rate-bps", "250000", "--vcc-v", "nan",
                       "--current-ma", "10"], "v_cc"),
    (lambda tmp_path: ["packet-cost", "--msdu-octets", "10",
                       "--data-rate-bps", "250000", "--vcc-v", "2.5",
                       "--current-ma", "inf"], "supply_current_ma"),
    (lambda tmp_path: ["plan-cycle", "--config", sigmoid_config(tmp_path),
                       "--v-oc", "3.0", "--r-ohm", "800", *STORE,
                       "--cutoff-v", "nan", "--msdu-octets", "106",
                       "--tx-power-dbm", "3.5", "--data-rate-bps", "250000"],
     "v_cutoff"),
    (lambda tmp_path: ["predict-charge", "--v-oc", "3", "--r-ohm", "800",
                       "--capacitance-f", "0.00012", "--horizon-s", "inf"],
     "--horizon-s"),
    (lambda tmp_path: ["ocv", "--p-dbm", "nan"], "p_dbm"),
    (lambda tmp_path: ["predict-charge", "--v-oc", "3", "--r-ohm", "800",
                       "--capacitance-f", "0.00012", "--horizon-s", "1",
                       "--points", "1" + "0" * 400], "--points"),
    (lambda tmp_path: ["simulate-burst", "--config", sigmoid_config(tmp_path),
                       "--plan", plan_file(tmp_path, [("inf", 0.0, 250000)]),
                       *STORE], "msdu_octets"),
], ids=["rate-flag", "initial-v-flag", "brownout-flag", "plan-tx-power",
        "plan-rate", "trace-voltage", "trace-time", "charge-model",
        "calibration-power", "vcc-flag", "current-flag", "cutoff-flag",
        "horizon-flag", "p-dbm-flag", "points-flag", "plan-octets"])
def test_cli_rejects_non_finite_flags_and_records(tmp_path, capsys,
                                                  make_argv, key):
    status, out, err = run_cli(capsys, make_argv(tmp_path))
    assert (status, out) == (1, "")
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err


def trace_file(tmp_path, rows):
    path = tmp_path / "trace.csv"
    path.write_text("t_s,v_v\n" + rows)
    return str(path)


def calibration_file(tmp_path, rows):
    path = tmp_path / "cal.csv"
    path.write_text("c_c_ma,p_t_dbm\n" + rows)
    return str(path)


# every numeric flag -----------------------------------------------------------

def numeric_flags():
    """(subcommand, option) for each float or int flag of the parser."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return [(command, action.option_strings[0])
            for command, parser in subparsers.choices.items()
            for action in parser._actions if action.type in (float, int)]


NUMERIC_FLAGS = numeric_flags()
BAD_FLAG_VALUES = ["nan", "inf", "-inf", "1" + "0" * 400, "0", "-1",
                   *map(repr, FINITE_EXTREMES)]


@pytest.fixture(scope="module")
def valid_argvs(tmp_path_factory):
    """One valid argv per subcommand as {option: value}; packet-cost has one
    per member of its exclusive current/power group."""
    directory = tmp_path_factory.mktemp("cli")
    config = sigmoid_config(directory)
    store = {"--capacitance-f": "0.00012", "--initial-v": "2.5"}
    return [
        ("fit-charge", {"--trace": trace_file(
            directory, "0.0,0.0\n0.5,1.0\n1.0,1.6\n2.0,2.3\n"),
            "--capacitance-f": "0.0022", "--v-oc": "3.0"}),
        ("predict-charge", {"--v-oc": "3", "--r-ohm": "800",
                            "--capacitance-f": "0.00012", "--horizon-s": "1",
                            "--points": "11",
                            "--curve-csv": str(directory / "curve.csv")}),
        ("ocv", {"--p-dbm": "-5"}),
        ("packet-cost", {"--msdu-octets": "10", "--data-rate-bps": "250000",
                         "--vcc-v": "2.5", "--current-ma": "10"}),
        ("packet-cost", {"--config": config, "--msdu-octets": "10",
                         "--data-rate-bps": "250000", "--vcc-v": "2.5",
                         "--tx-power-dbm": "0"}),
        ("simulate-burst", {"--config": config, "--plan": plan_file(
            directory, [(10, 0.0, 250000)] * 2), **store,
            "--brownout-v": "1.8"}),
        ("plan-cycle", {"--config": config, "--v-oc": "3.0", "--r-ohm": "800",
                        **store, "--cutoff-v": "1.8", "--msdu-octets": "106",
                        "--tx-power-dbm": "3.5", "--data-rate-bps": "250000",
                        "--cap-n": "8", "--brownout-v": "1.8"}),
    ]


@pytest.mark.parametrize("command, option", NUMERIC_FLAGS,
                         ids=[command + option
                              for command, option in NUMERIC_FLAGS])
@settings(deadline=None)
@given(value=st.sampled_from(BAD_FLAG_VALUES))
def test_cli_numeric_flags_end_in_a_report_or_one_error_line(
        valid_argvs, command, option, value):
    base = next(argv for name, argv in valid_argvs
                if name == command and option in argv)
    argv = [command] + [f"{key}={val}" for key, val in
                        {**base, option: value}.items()]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code
    assert status in (0, 1, 2), err.getvalue()
    if status == 0:
        json.loads(out.getvalue(),
                   parse_constant=lambda name: pytest.fail(f"{name} in report"))
    if status == 1:
        assert out.getvalue() == ""
        assert [line.startswith("error:")
                for line in err.getvalue().splitlines()].count(True) == 1
