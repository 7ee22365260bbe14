"""Distributed skinny-matrix linear algebra over Spark DataFrames."""
from .skinny import (
    argmax_assign,
    fold_partitions,
    gram,
    matmul_small,
    orthonormalize,
    random_skinny,
    row_normalize,
    spgemm,
    svd_topk,
)

__all__ = [
    "argmax_assign",
    "fold_partitions",
    "gram",
    "matmul_small",
    "orthonormalize",
    "random_skinny",
    "row_normalize",
    "spgemm",
    "svd_topk",
]
