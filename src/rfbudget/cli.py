"""Command-line interface.

Every subcommand prints one flat key/value report (JSON by default,
``--format csv`` for a two-column table) with units in the key names:
energies in uJ, voltages in V, times in s. Subcommands with tabular output
(charge curves, per-packet ledgers, per-bit samples) write CSV files when
given the matching ``--*-csv`` path. Identical inputs produce byte-identical
output. Exit status: 0 on success, 1 on any model or input error, 2 on
usage errors.
"""

import argparse
import sys
import warnings

from .burst import DEFAULT_BROWNOUT_V, burst_energy
from .device import (DeviceProfile, EscState, PacketPlan, count, finite,
                     interpacket_overhead, packet_airtime, sleep_energy,
                     wakeup_energy, wakeup_time)
from .errors import RfBudgetError
from .fileio import (RunConfig, load_calibration, load_config,
                     load_ocv_table, load_plan, load_voltage_trace,
                     render_record_csv, render_record_json, write_table)
from .harvest import (ChargeModel, charge_voltage, fit_charge_model,
                      fit_r_known_voc, prediction_error)
from .planner import cycle_report
from .radiopower import (current_from_tx_power, fit_sigmoid, system_power,
                         tx_power_from_current)


def _store_from_args(args, config: RunConfig) -> tuple[RunConfig, EscState]:
    """Overlay the store and burst flags on ``config`` (flags win over
    config file values); the resolved config and the initial store."""
    flags = {"capacitance_f": args.capacitance_f,
             "initial_voltage_v": args.initial_v,
             "brownout_v": args.brownout_v,
             "include_final_gap": False if args.no_final_gap_overhead else None}
    config = config._replace(**{key: value for key, value in flags.items()
                                  if value is not None})
    for flag, key in (("--capacitance-f", "capacitance_f"),
                      ("--initial-v", "initial_voltage_v")):
        if getattr(config, key) is None:
            raise ValueError(f"missing {flag} (or esc.{key} in the config file)")
    return config, EscState(capacitance=config.capacitance_f,
                            voltage=config.initial_voltage_v)


def _model_record(model: ChargeModel) -> dict:
    """The charge-model keys of the fit-charge and predict-charge reports."""
    return {"v_oc_v": model.v_oc, "r_eq_ohm": model.r_eq,
            "capacitance_f": model.capacitance, "tau_s": model.tau}


def cmd_fit_charge(args, config: RunConfig) -> dict:
    samples = load_voltage_trace(args.trace)
    model = (fit_charge_model(samples, args.capacitance_f) if args.v_oc is None
             else fit_r_known_voc(samples, args.capacitance_f, args.v_oc))
    return {
        **_model_record(model),
        "mean_abs_residual_v": prediction_error(model, samples),
        "n_samples": len(samples),
    }


def cmd_predict_charge(args, config: RunConfig) -> dict:
    model = ChargeModel(v_oc=args.v_oc, r_eq=args.r_ohm,
                        capacitance=args.capacitance_f)
    horizon = finite("--horizon-s", args.horizon_s, gt=0)
    n = count("--points", args.points, ge=2)
    # the curve's times are horizon * i / (n - 1), so this bounds every one
    finite("--horizon-s * (--points - 1)", horizon * (n - 1))
    if args.curve_csv:
        times = (horizon * i / (n - 1) for i in range(n))
        write_table(args.curve_csv, ("t_s", "v_v"),
                    ((t, charge_voltage(model, t)) for t in times))
    return {
        **_model_record(model),
        "horizon_s": args.horizon_s,
        "v_at_horizon_v": charge_voltage(model, horizon * (n - 1) / (n - 1)),
        "n_points": n,
    }


def cmd_ocv(args, config: RunConfig) -> dict:
    table = load_ocv_table(args.table) if args.table else config.ocv_table
    return {
        "p_dbm": args.p_dbm,
        "v_oc_v": table.voltage_at(args.p_dbm),
        "clamped": table.clamps(args.p_dbm),
    }


def cmd_fit_power(args, config: RunConfig) -> dict:
    points = load_calibration(args.calibration)
    coeffs = fit_sigmoid(points)
    fitted = DeviceProfile(**coeffs._asdict())
    sq = [(tx_power_from_current(fitted, p.supply_current) - p.tx_power) ** 2
          for p in points]
    rms = (sum(sq) / len(sq)) ** 0.5
    return {
        "alpha1_dbm": coeffs.alpha1,
        "alpha2_dbm": coeffs.alpha2,
        "alpha3_per_ma": coeffs.alpha3,
        "alpha4_ma": coeffs.alpha4,
        "rms_error_db": rms,
        "n_points": len(points),
    }


def cmd_packet_cost(args, config: RunConfig) -> dict:
    current_ma = (args.current_ma if args.tx_power_dbm is None else
                  current_from_tx_power(config.profile, args.tx_power_dbm))
    timing = packet_airtime(config.layout, args.msdu_octets, args.data_rate_bps)
    record = {
        "msdu_octets": args.msdu_octets,
        "data_rate_bps": args.data_rate_bps,
        "vcc_v": args.vcc_v,
        "supply_current_ma": current_ma,
        "system_power_mw": system_power(args.vcc_v, current_ma),
        "wake_time_s": wakeup_time(config.profile, args.msdu_octets) * 1e-3,
        "airtime_s": timing.airtime * 1e-3,
        "preamble_time_s": timing.preamble_time * 1e-3,
        "effective_fraction": timing.effective_fraction,
        "wake_energy_uj": wakeup_energy(config.profile, args.vcc_v,
                                        args.msdu_octets),
        "sleep_energy_uj": sleep_energy(config.profile, args.vcc_v, current_ma),
        "interpacket_overhead_uj": interpacket_overhead(config.profile,
                                                        args.vcc_v, current_ma),
    }
    if args.tx_power_dbm is not None:
        record["tx_power_dbm"] = args.tx_power_dbm
    elif config.profile.has_sigmoid:
        record["tx_power_dbm"] = tx_power_from_current(config.profile, current_ma)
    return record


def cmd_simulate_burst(args, config: RunConfig) -> dict:
    plans = load_plan(args.plan)
    config, initial = _store_from_args(args, config)
    report = burst_energy(plans, initial, config.profile, config.layout,
                          include_final_gap=config.include_final_gap,
                          brownout_v=config.brownout_v,
                          record_samples=bool(args.samples_csv))
    if args.packets_csv:
        header = ("packet", "msdu_octets", "tx_power_dbm", "data_rate_bps",
                  "supply_current_ma", "v_start_v", "e_phy_uj", "e_mhr_uj",
                  "e_msdu_uj", "e_fcs_uj", "v_after_phy_v", "v_after_mhr_v",
                  "v_after_msdu_v", "v_after_fcs_v", "wake_uj",
                  "interpacket_uj", "sleep_uj")
        rows = [(p.index, *p.plan, p.supply_current_ma, p.v_start,
                 *p.frame, p.wake_energy_uj, p.interpacket_energy_uj,
                 p.sleep_energy_uj)
                for p in report.packets]
        write_table(args.packets_csv, header, rows)
    if args.samples_csv:
        write_table(args.samples_csv, ("packet", "bit", "e_cum_uj"),
                    report.sample_rows())
    return {
        "n_packets": len(report.packets),
        "capacitance_f": initial.capacitance,
        "v_init_v": initial.voltage,
        "v_final_v": report.final_state.voltage,
        "e_total_uj": report.total_energy_uj,
        "e_wake_uj": sum(p.wake_energy_uj for p in report.packets),
        "e_protocol_uj": sum(p.frame.protocol_energy_uj for p in report.packets),
        "e_msdu_uj": sum(p.frame.e_msdu_uj for p in report.packets),
        "e_interpacket_uj": sum(p.interpacket_energy_uj for p in report.packets),
        "e_sleep_uj": sum(p.sleep_energy_uj for p in report.packets),
    }


def cmd_plan_cycle(args, config: RunConfig) -> dict:
    config, initial = _store_from_args(args, config)
    model = ChargeModel(v_oc=args.v_oc, r_eq=args.r_ohm,
                        capacitance=initial.capacitance)
    template = PacketPlan(msdu_octets=args.msdu_octets,
                          tx_power=args.tx_power_dbm,
                          data_rate=args.data_rate_bps)
    plan = cycle_report(model, initial, args.cutoff_v, template,
                        config.profile, config.layout, args.cap_n,
                        include_final_gap=config.include_final_gap,
                        brownout_v=config.brownout_v)
    return {
        "n_packets": plan.n_packets,
        "capacitance_f": initial.capacitance,
        "v_init_v": initial.voltage,
        "cutoff_v": args.cutoff_v,
        "v_final_v": (plan.burst.final_state.voltage if plan.burst is not None
                      else initial.voltage),
        "e_total_uj": (plan.burst.total_energy_uj if plan.burst is not None
                       else 0.0),
        "active_time_s": plan.active_time,
        "recharge_time_s": plan.recharge_time,
        "cycle_time_s": plan.active_time + plan.recharge_time,
        "duty_cycle": plan.duty_cycle,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfbudget",
        description="Energy budgeting for RF-energy-harvesting IoT nodes.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config overlaying the built-in "
                                         "device defaults")
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format (default json)")
    charge = argparse.ArgumentParser(add_help=False)
    charge.add_argument("--v-oc", type=float, required=True,
                        help="open-circuit voltage of the fitted charge model")
    charge.add_argument("--r-ohm", type=float, required=True,
                        help="equivalent impedance of the fitted charge model")
    store = argparse.ArgumentParser(add_help=False)
    store.add_argument("--capacitance-f", type=float)
    store.add_argument("--initial-v", type=float)
    store.add_argument("--brownout-v", type=float)
    store.add_argument("--no-final-gap-overhead", action="store_true",
                       help="leave the transceiver off/on overhead of the "
                            "last inter-packet gap out of the budget")
    packet = argparse.ArgumentParser(add_help=False)
    packet.add_argument("--msdu-octets", type=int, required=True)
    packet.add_argument("--data-rate-bps", type=float, required=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-charge", parents=[common],
                       help="fit the charging curve to a voltage trace")
    p.add_argument("--trace", required=True, help="CSV trace with header t_s,v_v")
    p.add_argument("--capacitance-f", type=float, required=True)
    p.add_argument("--v-oc", type=float,
                   help="if given, fit only the impedance with this known "
                        "open-circuit voltage")
    p.set_defaults(func=cmd_fit_charge)

    p = sub.add_parser("predict-charge", parents=[common, charge],
                       help="sample a fitted charging curve over a horizon")
    p.add_argument("--capacitance-f", type=float, required=True)
    p.add_argument("--horizon-s", type=float, required=True)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--curve-csv", help="write the sampled curve here")
    p.set_defaults(func=cmd_predict_charge)

    p = sub.add_parser("ocv", parents=[common],
                       help="open-circuit voltage for an incident RF power")
    p.add_argument("--p-dbm", type=float, required=True)
    p.add_argument("--table", help="CSV table with header p_dbm,v_oc_v "
                                   "(default: built-in P2110 table)")
    p.set_defaults(func=cmd_ocv)

    p = sub.add_parser("fit-power", parents=[common],
                       help="fit the transmit-power S-curve to a calibration")
    p.add_argument("--calibration", required=True,
                   help="CSV with header c_c_ma,p_t_dbm")
    p.set_defaults(func=cmd_fit_power)

    p = sub.add_parser("packet-cost", parents=[common, packet],
                       help="timing and lump energies of a single packet")
    p.add_argument("--vcc-v", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--current-ma", type=float)
    group.add_argument("--tx-power-dbm", type=float,
                       help="requires sigmoid coefficients in the config")
    p.set_defaults(func=cmd_packet_cost)

    p = sub.add_parser("simulate-burst", parents=[common, store],
                       help="simulate a burst from a packet plan file")
    p.add_argument("--plan", required=True,
                   help="CSV with header msdu_octets,p_t_dbm,r_d_bps")
    p.add_argument("--packets-csv", help="write the per-packet ledger here")
    p.add_argument("--samples-csv", help="write per-bit cumulative energy here")
    p.set_defaults(func=cmd_simulate_burst)

    p = sub.add_parser("plan-cycle", parents=[common, charge, store, packet],
                       help="packets per cycle and recharge time")
    p.add_argument("--cutoff-v", type=float, default=DEFAULT_BROWNOUT_V,
                   help="lowest usable store voltage (default "
                        f"{DEFAULT_BROWNOUT_V}, the device's minimum "
                        "operating voltage)")
    p.add_argument("--tx-power-dbm", type=float, required=True)
    p.add_argument("--cap-n", type=int, default=64,
                   help="upper bound on packets per cycle (default 64)")
    p.set_defaults(func=cmd_plan_cycle)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            config = load_config(args.config)
            record = args.func(args, config)
        rendered = (render_record_json(record) if args.format == "json"
                    else render_record_csv(record))
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(rendered)
        else:
            sys.stdout.write(rendered)
    except (RfBudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
