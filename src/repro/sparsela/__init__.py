"""NumPy sparse linear-algebra substrate (scipy is not installed)."""
from .coo import SparseCOO, degree_normalize
from .kmeans import lloyd
from .randsvd import OVERSAMPLE, ritz, subspace_eigh, svd_left

__all__ = ["SparseCOO", "degree_normalize", "lloyd", "OVERSAMPLE", "ritz",
           "subspace_eigh", "svd_left"]
