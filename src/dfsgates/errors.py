"""Exception types raised by precondition checks across the library."""


class DfsGatesError(ValueError):
    """Base class for all contract violations raised by this package."""


class NotHermitianError(DfsGatesError):
    """Matrix expected to be Hermitian is not, within tolerance."""


class NotOrthonormalError(DfsGatesError):
    """Vectors expected to be orthonormal are not, within tolerance."""


class LengthMismatchError(DfsGatesError):
    """Pauli strings or sums defined on different qubit counts were combined."""


class DimensionMismatchError(DfsGatesError):
    """Matrix or vector dimensions are incompatible with the operation."""


class DimensionTooLargeError(DfsGatesError):
    """Requested dense realization exceeds the supported 2**8 dimension."""


class OddQubitCountError(DfsGatesError):
    """The encoding and decoupling constructions require an even qubit count."""


class TooFewQubitsError(DfsGatesError):
    """Fewer physical qubits than the construction needs."""


class ScheduleError(DfsGatesError):
    """A gate schedule names an unknown kind or holds no segments."""


class LogicalIndexError(DfsGatesError):
    """Logical-qubit index outside 1..(N-2)."""


class BadIndexPairError(DfsGatesError):
    """Entangling-gate targets must satisfy 1 <= k < l <= N-2."""


class LeakageError(DfsGatesError):
    """A propagator mapped population out of the code subspace."""


class BadPartitionError(DfsGatesError):
    """A partition does not fit: a pulse spacing does not divide the total
    time into whole cycles, or a Pauli term straddles a split register."""
