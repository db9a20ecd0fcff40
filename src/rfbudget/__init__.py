"""Energy budgeting for RF-energy-harvesting IoT nodes.

Models the full energy path of a small wireless node fed by an RF
harvester: how the storage capacitor charges, how transmit power maps to
supply current, what a packet costs bit by bit while the capacitor drains,
and how many packets fit into one duty cycle.
"""

from .burst import (BurstReport, FrameBreakdown, PacketLedger,
                    bit_energy_closed_form, bit_energy_oracle, burst_energy,
                    first_bit_energy, protocol_overhead, segment_energy)
from .device import (DeviceProfile, EscState, FrameLayout, PacketPlan,
                     PacketTiming, interpacket_overhead, packet_airtime,
                     sleep_energy, wakeup_energy, wakeup_time)
from .errors import (BrownoutWarning, EscDepletedError, FitError,
                     RfBudgetError, TraceParseError, UnreachableVoltageError)
from .fileio import (RunConfig, load_calibration, load_config, load_ocv_table,
                     load_plan, load_voltage_trace)
from .harvest import (ChargeModel, OcvTable, VoltageSample, charge_voltage,
                      fit_charge_model, fit_r_known_voc, prediction_error,
                      stored_energy, time_to_voltage)
from .planner import CyclePlan, cycle_report, max_packets, recharge_plan
from .radiopower import (CalibrationPoint, SigmoidCoefficients,
                         current_from_tx_power, fit_sigmoid, system_power,
                         tx_power_from_current)

__version__ = "0.1.0"

__all__ = [
    "BrownoutWarning", "BurstReport", "CalibrationPoint", "ChargeModel",
    "CyclePlan", "DeviceProfile", "EscDepletedError", "EscState", "FitError",
    "FrameBreakdown", "FrameLayout", "OcvTable", "PacketLedger", "PacketPlan",
    "PacketTiming", "RfBudgetError", "RunConfig", "SigmoidCoefficients",
    "TraceParseError", "UnreachableVoltageError", "VoltageSample",
    "bit_energy_closed_form", "bit_energy_oracle", "burst_energy",
    "charge_voltage", "current_from_tx_power", "cycle_report",
    "first_bit_energy", "fit_charge_model", "fit_r_known_voc", "fit_sigmoid",
    "interpacket_overhead", "load_calibration", "load_config",
    "load_ocv_table", "load_plan", "load_voltage_trace", "max_packets",
    "packet_airtime", "prediction_error", "protocol_overhead",
    "recharge_plan", "segment_energy", "sleep_energy", "stored_energy",
    "system_power", "time_to_voltage", "tx_power_from_current",
    "wakeup_energy", "wakeup_time",
]
