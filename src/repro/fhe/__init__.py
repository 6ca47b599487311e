"""FHE substrate: negacyclic NTT, ring arithmetic, RNS/CRT engine, textbook BFV."""

from repro.fhe.batching import BatchEncoder
from repro.fhe.bfv import (
    Bfv,
    BfvParams,
    Ciphertext,
    GaloisKey,
    PublicKey,
    RelinKey,
    SecretKey,
    toy_parameters,
)
from repro.fhe.galois import (
    conjugation_element,
    eval_permutation,
    galois_slot_order,
    rotation_element,
    rows_to_slots,
    slot_exponents,
    slots_to_rows,
)
from repro.fhe.engine import (
    BigintEngine,
    CiphertextTensor,
    PreparedPlain,
    RnsEngine,
    make_engine,
)
from repro.fhe.ntt import NegacyclicNtt, bitrev_indices, get_ntt
from repro.fhe.ntt_vec import VecNtt, butterfly_fits_int64, get_vec_ntt
from repro.fhe.poly import Rq, centered, convolve_signed, negacyclic_mul_exact
from repro.fhe.rng import PolyRng
from repro.fhe.rns import (
    ExactBaseLift,
    ExactRescaler,
    RnsContext,
    RnsPoly,
    get_rns_context,
    ntt_prime_chain,
)

__all__ = [
    "BatchEncoder",
    "Bfv",
    "BfvParams",
    "BigintEngine",
    "Ciphertext",
    "CiphertextTensor",
    "ExactBaseLift",
    "ExactRescaler",
    "GaloisKey",
    "NegacyclicNtt",
    "PolyRng",
    "PreparedPlain",
    "PublicKey",
    "RelinKey",
    "RnsContext",
    "RnsEngine",
    "RnsPoly",
    "Rq",
    "SecretKey",
    "VecNtt",
    "bitrev_indices",
    "butterfly_fits_int64",
    "centered",
    "conjugation_element",
    "convolve_signed",
    "eval_permutation",
    "galois_slot_order",
    "get_ntt",
    "get_rns_context",
    "get_vec_ntt",
    "make_engine",
    "negacyclic_mul_exact",
    "ntt_prime_chain",
    "rotation_element",
    "rows_to_slots",
    "slot_exponents",
    "slots_to_rows",
    "toy_parameters",
]
