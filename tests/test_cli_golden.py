"""Byte-exact reports of every subcommand on small fixed inputs.

Each case writes the input files below into a fresh directory, runs the
CLI in process there and compares the exit status, stdout, stderr and
every ``--*-csv`` file it asks for with the bytes pinned in ``GOLDEN``
(the per-bit samples file by its SHA-256). A change meant to keep the
CLI's output must keep these passing.
"""

import hashlib
import json

import pytest

from rfbudget.cli import main
from conftest import ALPHA1, ALPHA2, ALPHA3, ALPHA4

INPUTS = {
    # A 2.6 V / 170.6 ohm / 2.2 mF charge curve, rounded to the millivolt.
    "trace.csv": "t_s,v_v\n0.05,0.324\n0.2,1.074\n0.4,1.704\n0.6,2.074\n"
                 "0.8,2.291\n1.0,2.419\n1.2,2.494\n",
    # The S-curve alpha = (4, 40, 0.5, 14), rounded to 0.01 dB.
    "calibration.csv": "c_c_ma,p_t_dbm\n1,-35.94\n4,-35.73\n7,-34.83\n"
                       "10,-31.23\n12,-25.24\n14,-16.00\n16,-6.76\n"
                       "18,-0.77\n21,2.83\n25,3.84\n30,3.99\n",
    "plan.csv": "msdu_octets,p_t_dbm,r_d_bps\n106,3.5,250000\n"
                "20,0.0,1000000\n",
    "config.json": json.dumps({"device": {
        "alpha1_dbm": ALPHA1, "alpha2_dbm": ALPHA2,
        "alpha3_per_ma": ALPHA3, "alpha4_ma": ALPHA4}}),
}

STORE = ["--config", "config.json", "--capacitance-f", "0.00012",
         "--initial-v", "2.5"]
PLAN_CYCLE = ["plan-cycle", *STORE, "--v-oc", "3.0", "--r-ohm", "800",
              "--cutoff-v", "1.5", "--msdu-octets", "40",
              "--tx-power-dbm", "3.5", "--data-rate-bps", "250000",
              "--cap-n", "16"]

CASES = {
    "fit-charge": ["fit-charge", "--trace", "trace.csv",
                   "--capacitance-f", "0.0022"],
    "fit-charge-known-voc": ["fit-charge", "--trace", "trace.csv",
                             "--capacitance-f", "0.0022", "--v-oc", "2.6"],
    "predict-charge": ["predict-charge", "--v-oc", "2.6", "--r-ohm", "170.6",
                       "--capacitance-f", "0.0022", "--horizon-s", "2.0",
                       "--points", "5", "--curve-csv", "curve.csv"],
    "ocv": ["ocv", "--p-dbm", "-12.65"],
    "fit-power": ["fit-power", "--calibration", "calibration.csv"],
    "simulate-burst": ["simulate-burst", *STORE, "--plan", "plan.csv",
                       "--packets-csv", "packets.csv",
                       "--samples-csv", "samples.csv"],
    "simulate-burst-no-final-gap": ["simulate-burst", *STORE,
                                    "--plan", "plan.csv", "--brownout-v", "0",
                                    "--no-final-gap-overhead"],
    "plan-cycle": PLAN_CYCLE,
    "plan-cycle-csv": [*PLAN_CYCLE, "--no-final-gap-overhead",
                       "--format", "csv"],
    # One packet fits with room to spare: the planner proves the cap
    # without walking, and the report must not change.
    "plan-cycle-cap-limited": [*PLAN_CYCLE[:-2], "--cap-n", "1"],
    # The cutoff is the repr of the 2-packet burst's own final voltage, so
    # the planner's bracket cannot settle that burst and the walk decides.
    "plan-cycle-near-tie": [*PLAN_CYCLE[:11], "--cutoff-v",
                            "1.6933354069167803", *PLAN_CYCLE[13:]],
}

GOLDEN = {
    "fit-charge": {
        "status": 0,
        "stdout": ('{\n'
                   '  "capacitance_f": 0.0022,\n'
                   '  "mean_abs_residual_v": 0.000177652,\n'
                   '  "n_samples": 7,\n'
                   '  "r_eq_ohm": 170.696,\n'
                   '  "tau_s": 0.375532,\n'
                   '  "v_oc_v": 2.60027\n'
                   '}\n'),
        "stderr": "",
        "files": {},
    },
    "fit-charge-known-voc": {
        "status": 0,
        "stdout": ('{\n'
                   '  "capacitance_f": 0.0022,\n'
                   '  "mean_abs_residual_v": 0.000212542,\n'
                   '  "n_samples": 7,\n'
                   '  "r_eq_ohm": 170.653,\n'
                   '  "tau_s": 0.375436,\n'
                   '  "v_oc_v": 2.6\n'
                   '}\n'),
        "stderr": "",
        "files": {},
    },
    "predict-charge": {
        "status": 0,
        "stdout": ('{\n'
                   '  "capacitance_f": 0.0022,\n'
                   '  "horizon_s": 2.0,\n'
                   '  "n_points": 5,\n'
                   '  "r_eq_ohm": 170.6,\n'
                   '  "tau_s": 0.37532,\n'
                   '  "v_at_horizon_v": 2.58739,\n'
                   '  "v_oc_v": 2.6\n'
                   '}\n'),
        "stderr": "",
        "files": {
            "curve.csv":
                ('t_s,v_v\n'
                 '0,0\n'
                 '0.5,1.91387\n'
                 '1,2.41893\n'
                 '1.5,2.55222\n'
                 '2,2.58739\n'),
        },
    },
    "ocv": {
        "status": 0,
        "stdout": ('{\n'
                   '  "clamped": false,\n'
                   '  "p_dbm": -12.65,\n'
                   '  "v_oc_v": 0.65\n'
                   '}\n'),
        "stderr": "",
        "files": {},
    },
    "fit-power": {
        "status": 0,
        "stdout": ('{\n'
                   '  "alpha1_dbm": 4.00337,\n'
                   '  "alpha2_dbm": 40.004,\n'
                   '  "alpha3_per_ma": 0.49982,\n'
                   '  "alpha4_ma": 14.0004,\n'
                   '  "n_points": 11,\n'
                   '  "rms_error_db": 0.00131183\n'
                   '}\n'),
        "stderr": "",
        "files": {},
    },
    "simulate-burst": {
        "status": 0,
        "stdout": ('{\n'
                   '  "capacitance_f": 0.00012,\n'
                   '  "e_interpacket_uj": 19.5403,\n'
                   '  "e_msdu_uj": 115.62,\n'
                   '  "e_protocol_uj": 39.3287,\n'
                   '  "e_sleep_uj": 4.43902,\n'
                   '  "e_total_uj": 214.399,\n'
                   '  "e_wake_uj": 35.4705,\n'
                   '  "n_packets": 2,\n'
                   '  "v_final_v": 1.63606,\n'
                   '  "v_init_v": 2.5\n'
                   '}\n'),
        "stderr": ('warning: supply voltage reached 1.636 V, below the 1.80 '
                   'V brown-out level; the device constants are unvalidated '
                   'down there\n'),
        "files": {
            "packets.csv":
                ('packet,msdu_octets,tx_power_dbm,data_rate_bps,'
                 'supply_current_ma,v_start_v,e_phy_uj,e_mhr_uj,e_msdu_uj,'
                 'e_fcs_uj,v_after_phy_v,v_after_mhr_v,v_after_msdu_v,'
                 'v_after_fcs_v,wake_uj,interpacket_uj,sleep_uj\n'
                 '1,106,3.5,250000,16.24,2.37883,7.37771,22.8282,112.445,'
                 '1.87852,2.35284,2.27055,1.81144,1.80277,35.4705,19.5403,'
                 '0\n'
                 '2,20,0,1e+06,11.8956,1.71007,3.88441,3.04406,3.17484,'
                 '0.315824,1.69103,1.67596,1.6601,1.65852,0,0,4.43902\n'),
        },
        "sha256": {"samples.csv":
                   '089319554a86b2ee52ca4d55a5c254953f1711d9'
                   'da8108c7d78c82c7ecc8a75d'},
    },
    "simulate-burst-no-final-gap": {
        "status": 0,
        "stdout": ('{\n'
                   '  "capacitance_f": 0.00012,\n'
                   '  "e_interpacket_uj": 0.0,\n'
                   '  "e_msdu_uj": 115.797,\n'
                   '  "e_protocol_uj": 39.7257,\n'
                   '  "e_sleep_uj": 4.68715,\n'
                   '  "e_total_uj": 195.68,\n'
                   '  "e_wake_uj": 35.4705,\n'
                   '  "n_packets": 2,\n'
                   '  "v_final_v": 1.72878,\n'
                   '  "v_init_v": 2.5\n'
                   '}\n'),
        "stderr": "",
        "files": {},
    },
    "plan-cycle": {
        "status": 0,
        "stdout": ('{\n'
                   '  "active_time_s": 0.007353,\n'
                   '  "capacitance_f": 0.00012,\n'
                   '  "cutoff_v": 1.5,\n'
                   '  "cycle_time_s": 0.099573,\n'
                   '  "duty_cycle": 0.0738453,\n'
                   '  "e_total_uj": 202.957,\n'
                   '  "n_packets": 2,\n'
                   '  "recharge_time_s": 0.09222,\n'
                   '  "v_final_v": 1.69334,\n'
                   '  "v_init_v": 2.5\n'
                   '}\n'),
        "stderr": ('warning: supply voltage reached 1.693 V, below the 1.80 '
                   'V brown-out level; the device constants are unvalidated '
                   'down there\n'),
        "files": {},
    },
    "plan-cycle-csv": {
        "status": 0,
        "stdout": ('key,value\n'
                   'active_time_s,0.007353\n'
                   'capacitance_f,0.00012\n'
                   'cutoff_v,1.5\n'
                   'cycle_time_s,0.0925352\n'
                   'duty_cycle,0.0794617\n'
                   'e_total_uj,183.676\n'
                   'n_packets,2\n'
                   'recharge_time_s,0.0851822\n'
                   'v_final_v,1.7857\n'
                   'v_init_v,2.5\n'),
        "stderr": ('warning: supply voltage reached 1.786 V, below the 1.80 '
                   'V brown-out level; the device constants are unvalidated '
                   'down there\n'),
        "files": {},
    },
    "plan-cycle-cap-limited": {
        "status": 0,
        "stdout": ('{\n'
                   '  "active_time_s": 0.004149,\n'
                   '  "capacitance_f": 0.00012,\n'
                   '  "cutoff_v": 1.5,\n'
                   '  "cycle_time_s": 0.0631101,\n'
                   '  "duty_cycle": 0.0657423,\n'
                   '  "e_total_uj": 116.43,\n'
                   '  "n_packets": 1,\n'
                   '  "recharge_time_s": 0.0589611,\n'
                   '  "v_final_v": 2.07593,\n'
                   '  "v_init_v": 2.5\n'
                   '}\n'),
        "stderr": "",
        "files": {},
    },
    "plan-cycle-near-tie": {
        "status": 0,
        "stdout": ('{\n'
                   '  "active_time_s": 0.007353,\n'
                   '  "capacitance_f": 0.00012,\n'
                   '  "cutoff_v": 1.69334,\n'
                   '  "cycle_time_s": 0.099573,\n'
                   '  "duty_cycle": 0.0738453,\n'
                   '  "e_total_uj": 202.957,\n'
                   '  "n_packets": 2,\n'
                   '  "recharge_time_s": 0.09222,\n'
                   '  "v_final_v": 1.69334,\n'
                   '  "v_init_v": 2.5\n'
                   '}\n'),
        "stderr": ('warning: supply voltage reached 1.693 V, below the 1.80 '
                   'V brown-out level; the device constants are unvalidated '
                   'down there\n'),
        "files": {},
    },
}


@pytest.mark.parametrize("case", CASES)
def test_cli_report_is_byte_identical(tmp_path, monkeypatch, capsys, case):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    status = main(CASES[case])
    captured = capsys.readouterr()
    expected = GOLDEN[case]
    assert (status, captured.out, captured.err) == (
        expected["status"], expected["stdout"], expected["stderr"])
    for name, text in expected["files"].items():
        assert (tmp_path / name).read_text() == text, name
    for name, digest in expected.get("sha256", {}).items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
            == digest, name
