"""PASTA-3/-4 stream cipher: reference implementation + decryption-circuit closed forms."""

from repro.pasta.batch import (
    KeystreamEngine,
    batched_sequential_matrices,
    generate_block_materials_batch,
    generate_block_materials_pairs,
    get_engine,
)
from repro.pasta.cipher import (
    BlockMaterials,
    LayerMaterials,
    Pasta,
    generate_block_materials,
    random_key,
)
from repro.pasta.encoding import (
    deserialize_ciphertext,
    pack_elements,
    serialize_ciphertext,
    serialized_block_bytes,
    unpack_elements,
)
from repro.pasta.decrypt_circuit import (
    bsgs_split,
    homomorphic_op_counts,
    multiplicative_depth,
)
from repro.pasta.matgen import generate_matrix, iter_rows, next_row, streaming_mat_vec
from repro.pasta.params import (
    ALL_PUBLISHED,
    PASTA_3,
    PASTA_4,
    PASTA_4_33,
    PASTA_4_54,
    PASTA_MICRO,
    PASTA_TOY,
    VECTORS_PER_LAYER,
    PastaParams,
)
from repro.pasta.xof import block_xof, encode_block_seed

__all__ = [
    "ALL_PUBLISHED",
    "PASTA_3",
    "PASTA_4",
    "PASTA_4_33",
    "PASTA_4_54",
    "PASTA_MICRO",
    "PASTA_TOY",
    "VECTORS_PER_LAYER",
    "BlockMaterials",
    "KeystreamEngine",
    "LayerMaterials",
    "Pasta",
    "PastaParams",
    "batched_sequential_matrices",
    "block_xof",
    "deserialize_ciphertext",
    "encode_block_seed",
    "generate_block_materials",
    "generate_block_materials_batch",
    "generate_block_materials_pairs",
    "get_engine",
    "pack_elements",
    "serialize_ciphertext",
    "serialized_block_bytes",
    "unpack_elements",
    "generate_matrix",
    "bsgs_split",
    "homomorphic_op_counts",
    "multiplicative_depth",
    "iter_rows",
    "next_row",
    "random_key",
    "streaming_mat_vec",
]
