"""The package's public names, pinned so that the API cannot regrow silently."""

from __future__ import annotations

import inspect

import dfsgates

EXPORTS = {
    # dfs
    "LogicalBasis", "build_logical_basis", "dfs_decomposition", "logical_image",
    # errors
    "BadIndexPairError", "BadPartitionError", "DfsGatesError", "DimensionMismatchError",
    "DimensionTooLargeError", "LeakageError", "LengthMismatchError", "LogicalIndexError",
    "NotHermitianError", "NotOrthonormalError", "OddQubitCountError", "TooFewQubitsError",
    # gates
    "GateSchedule", "HolonomyReport", "ScheduleSegment", "analytic_target",
    "barred_transform", "heisenberg_reduction", "leakage_of", "logical_gate",
    "schedule_from_json", "schedule_to_json", "schedule_u1", "schedule_u2", "schedule_u3",
    "verify_holonomy",
    # linalg
    "ATOL_NORM", "ATOL_STRUCT", "expm_hermitian", "is_hermitian", "kron_all",
    "product_fidelity", "spectral_norm",
    # noise
    "BathModel", "DDErrorModel", "IDEAL_PULSES", "InterleavingPlan", "bare_evolution_error",
    "dd_cycle", "decoupling_order_probe", "error_sweep", "fit_error_order",
    "single_qubit_pulse", "sweep_csv_lines", "symbolic_bath_average",
    # pauli
    "DecouplingGroup", "PauliString", "PauliSum", "build_decoupling_group",
    "commutant_generators", "commutant_split", "commutes", "group_average",
}


def test_export_set_is_pinned():
    public = {name for name, value in vars(dfsgates).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == EXPORTS
    assert len(EXPORTS) == 57
