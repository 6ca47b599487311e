"""repro — reproduction of "PASTA on Edge: Cryptoprocessor for Hybrid
Homomorphic Encryption" (DATE 2025).

Subpackages
-----------
``repro.ff``
    Finite-field arithmetic, structured-prime reduction, rejection sampling.
``repro.keccak``
    Keccak-f[1600], SHAKE128/256, and hardware cycle models of the XOF core.
``repro.pasta``
    The PASTA-3/-4 stream cipher (software reference) and its decryption
    circuit for the HHE server.
``repro.fhe`` / ``repro.hhe``
    Textbook BFV and the hybrid homomorphic encryption protocol on top.
``repro.hw``
    Cycle-accurate behavioral model of the paper's accelerator plus the
    FPGA/ASIC area model.
``repro.soc``
    RV32IM instruction-set simulator, assembler, and the memory-mapped
    PASTA peripheral (the paper's RISC-V SoC).
``repro.baselines``
    CPU PASTA and prior PKE client accelerators used in Tables II/III.
``repro.apps``
    The video-frame encryption application of Fig. 8.
``repro.eval``
    Generators for every table and figure in the evaluation section.

Importing :mod:`repro` sets one process-wide allocator policy: on glibc,
freed heap is kept for the next frame instead of handed back to the kernel
(:mod:`repro.utils.memory`).
"""

from repro.utils.memory import apply_allocator_policy as _apply_allocator_policy

__version__ = "1.0.0"

#: Whether ``import repro`` applied the allocator policy; False where the C
#: library has no ``mallopt``.
ALLOCATOR_POLICY_APPLIED = _apply_allocator_policy()
