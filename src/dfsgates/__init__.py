"""Simulator of holonomic logical gates in decoupling-protected subspaces.

Layers, bottom up:

    linalg  dense kernels: tensor products, Hermitian exponentials,
            the phase-invariant fidelity of tensor products
    pauli   exact symbolic Pauli strings, the global decoupling group,
            group averaging onto the commutant
    dfs     the four invariant sectors and the logical-qubit encoding
    gates   piecewise-constant gate schedules, code-space evolution,
            holonomy certification, analytic targets
    noise   XY-4 decoupling with imperfect pulses, bath models, fidelity
            sweeps, decoupling-order probes
    cli     verify / sweep / decouple commands

The full-register propagators, projectors and Pauli matrices that check
these layers are test oracles, in tests/oracles.py.
"""

from .dfs import (
    LogicalBasis,
    build_logical_basis,
    dfs_decomposition,
    logical_image,
)
from .errors import (
    BadIndexPairError,
    BadPartitionError,
    DfsGatesError,
    DimensionMismatchError,
    DimensionTooLargeError,
    LeakageError,
    LengthMismatchError,
    LogicalIndexError,
    NotHermitianError,
    NotOrthonormalError,
    OddQubitCountError,
    TooFewQubitsError,
)
from .gates import (
    GateSchedule,
    HolonomyReport,
    ScheduleSegment,
    analytic_target,
    barred_transform,
    heisenberg_reduction,
    leakage_of,
    logical_gate,
    schedule_from_json,
    schedule_to_json,
    schedule_u1,
    schedule_u2,
    schedule_u3,
    verify_holonomy,
)
from .linalg import (
    ATOL_NORM,
    ATOL_STRUCT,
    expm_hermitian,
    is_hermitian,
    kron_all,
    product_fidelity,
    spectral_norm,
)
from .noise import (
    BathModel,
    DDErrorModel,
    IDEAL_PULSES,
    InterleavingPlan,
    bare_evolution_error,
    dd_cycle,
    decoupling_order_probe,
    error_sweep,
    fit_error_order,
    single_qubit_pulse,
    sweep_csv_lines,
    symbolic_bath_average,
)
from .pauli import (
    DecouplingGroup,
    PauliString,
    PauliSum,
    build_decoupling_group,
    commutant_generators,
    commutant_split,
    commutes,
    group_average,
)

__version__ = "0.1.0"
