"""Exception hierarchy for the PASTA-on-Edge reproduction library."""


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ParameterError(ReproError):
    """An invalid or inconsistent parameter set was supplied."""


class SingularMatrixError(ReproError):
    """A matrix expected to be invertible over F_p turned out singular."""


class NoiseBudgetExhausted(ReproError):
    """A BFV ciphertext no longer decrypts correctly (noise overflow)."""


class NonceReuseError(ReproError):
    """A (nonce, counter) keystream window would be consumed twice.

    Raised by the nonce sequencers in :mod:`repro.apps.video` and the
    streaming service when a monotonic nonce counter wraps around or a
    caller tries to rewind it — continuing would repeat keystream and leak
    plaintext differences.
    """


class ServiceError(ReproError):
    """The streaming transciphering service reached an invalid state."""


class SimulationError(ReproError):
    """The hardware/SoC simulation reached an inconsistent state."""


class AssemblerError(ReproError):
    """The RV32 assembler rejected an input program."""


class TrapError(SimulationError):
    """The RISC-V core raised a trap (illegal instruction, misaligned access...)."""
