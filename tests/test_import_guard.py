"""Nothing in the package loads numpy or scipy: no subcommand, and no
library call either, reading the per-bit samples and the ledger and
calling ``bit_energy_oracle`` included.

Each check runs in a fresh interpreter, because this test session has
long since imported numpy and scipy through the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import ALPHA1, ALPHA2, ALPHA3, ALPHA4
from rfbudget import FrameLayout

SRC = Path(__file__).resolve().parents[1] / "src"

NON_FIT = """
import contextlib, io, json, sys
import rfbudget, rfbudget.cli, rfbudget.lsq
from rfbudget.cli import main

rfbudget.load_config()

d = sys.argv[1]
sig = d + "/sig.json"
with open(sig, "w") as f:
    json.dump({"device": {"alpha1_dbm": %r, "alpha2_dbm": %r,
                          "alpha3_per_ma": %r, "alpha4_ma": %r}}, f)
with open(d + "/plan.csv", "w") as f:
    f.write("msdu_octets,p_t_dbm,r_d_bps\\n106,3.5,250000\\n10,0,250000\\n")
store = ["--capacitance-f", "0.00012", "--initial-v", "2.5"]
scalar_runs = [
    ["ocv", "--p-dbm", "-7"],
    ["predict-charge", "--v-oc", "3", "--r-ohm", "800",
     "--capacitance-f", "0.00012", "--horizon-s", "1"],
    ["packet-cost", "--msdu-octets", "42", "--data-rate-bps", "250000",
     "--vcc-v", "2.5", "--current-ma", "13"],
]
array_runs = [
    ["simulate-burst", "--config", sig, "--plan", d + "/plan.csv", *store],
    ["simulate-burst", "--config", sig, "--plan", d + "/plan.csv", *store,
     "--packets-csv", d + "/packets.csv", "--samples-csv", d + "/samples.csv"],
    ["plan-cycle", "--config", sig, "--v-oc", "3", "--r-ohm", "800", *store,
     "--msdu-octets", "106", "--tx-power-dbm", "3.5",
     "--data-rate-bps", "250000", "--cap-n", "8"],
]
helps = [["--help"]] + [[name, "--help"] for name in (
    "fit-charge", "predict-charge", "ocv", "fit-power", "packet-cost",
    "simulate-burst", "plan-cycle")]
with contextlib.redirect_stdout(io.StringIO()):
    statuses = [main(argv) for argv in scalar_runs]
    for argv in helps:
        try:
            main(argv)
        except SystemExit as exc:
            statuses.append(exc.code)
    statuses += [main(argv) for argv in array_runs]
with open(d + "/samples.csv") as f:
    sample_rows = sum(1 for _ in f) - 1
print(json.dumps({"statuses": statuses, "sample_rows": sample_rows,
                  "numpy": "numpy" in sys.modules,
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
""" % (ALPHA1, ALPHA2, ALPHA3, ALPHA4)

FIT = """
import contextlib, io, json, math, sys
from rfbudget.cli import main

d = sys.argv[1]
with open(d + "/trace.csv", "w") as f:
    f.write("t_s,v_v\\n")
    for i in range(20):
        t = 0.05 * i
        f.write(f"{t},{3.0 * -math.expm1(-t / 0.264):.9f}\\n")
with open(d + "/cal.csv", "w") as f:
    f.write("c_c_ma,p_t_dbm\\n")
    for i in range(16):
        c = 6.0 + i
        f.write(f"{c},{4.0 - 40.0 / (math.exp(0.5 * (c - 14.0)) + 1):.9f}\\n")
trace = ["fit-charge", "--trace", d + "/trace.csv", "--capacitance-f", "0.00012"]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    statuses = [main(trace), main(trace + ["--v-oc", "3"]),
                main(["fit-power", "--calibration", d + "/cal.csv"])]
print(json.dumps({"statuses": statuses,
                  "reports": out.getvalue().count("{"),
                  "numpy": "numpy" in sys.modules,
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""

SAMPLES_AND_ORACLE = """
import json, sys
import rfbudget.cli
from rfbudget import (DeviceProfile, EscState, FrameLayout, PacketPlan,
                      bit_energy_oracle, burst_energy)

cli = sorted(m for m in ("statistics", "fractions", "decimal")
             if m in sys.modules)
profile = DeviceProfile(alpha1=%r, alpha2=%r, alpha3=%r, alpha4=%r)
report = burst_energy([PacketPlan(10, 0.0, 250000.0)] * 2,
                      EscState(0.00012, 2.5), profile, FrameLayout())
rows = list(report.sample_rows())
packets = report.packets
energies, _ = bit_energy_oracle(2.5, 10.0, 250000.0, 0.00012, n_bits=4)
print(json.dumps({"cli": cli, "rows": len(rows), "packets": len(packets),
                  "oracle": [type(energies).__name__,
                             *(type(e).__name__ for e in energies)],
                  "numpy": "numpy" in sys.modules}))
""" % (ALPHA1, ALPHA2, ALPHA3, ALPHA4)


def run_fresh(code, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_non_fit_subcommands_and_help_do_not_load_scipy(tmp_path):
    result = run_fresh(NON_FIT, tmp_path)
    # three scalar runs, the top-level help and each subcommand's help,
    # then the two bursts (the second writing both tables) and the planner
    assert result["statuses"] == [0] * (3 + 8 + 3)
    # one row per bit of the plan's two frames
    layout = FrameLayout()
    assert result["sample_rows"] == (layout.frame_bits(106)
                                     + layout.frame_bits(10))
    assert result["numpy"] is False
    assert result["scipy"] == []


def test_fit_subcommands_load_no_scipy(tmp_path):
    result = run_fresh(FIT, tmp_path)
    assert result["statuses"] == [0, 0, 0]
    assert result["reports"] == 3
    assert result["numpy"] is False
    assert result["scipy"] == []


def test_samples_ledger_and_oracle_load_no_numpy(tmp_path):
    result = run_fresh(SAMPLES_AND_ORACLE, tmp_path)
    assert result["cli"] == []
    assert result["rows"] == 2 * FrameLayout().frame_bits(10)
    assert result["packets"] == 2
    assert result["oracle"] == ["tuple"] + ["float"] * 4
    assert result["numpy"] is False
