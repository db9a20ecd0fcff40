"""No subcommand loads scipy, and numpy is loaded only when an array is
built: by a burst's sample arrays, the planner's burst or a fit.

Each check runs in a fresh interpreter, because this test session has
long since imported numpy and scipy through the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import ALPHA1, ALPHA2, ALPHA3, ALPHA4

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
    numpy_before_arrays = "numpy" in sys.modules
    statuses += [main(argv) for argv in array_runs]
print(json.dumps({"statuses": statuses,
                  "numpy_before_arrays": numpy_before_arrays,
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
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""


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
    # then the two runs that build arrays
    assert result["statuses"] == [0] * (3 + 8 + 2)
    assert result["numpy_before_arrays"] is False
    assert result["scipy"] == []


def test_fit_subcommands_load_no_scipy(tmp_path):
    result = run_fresh(FIT, tmp_path)
    assert result["statuses"] == [0, 0, 0]
    assert result["reports"] == 3
    assert result["scipy"] == []
