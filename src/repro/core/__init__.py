"""The paper's contribution: HOPE and HOPE+ as distributed dataflow."""
from .graph import p_edges, q_edges, u_ids, v_ids, wpg_edges
from .hope import hop_embedding, hope, kmeans_assign
from .hopeplus import fnem_update, hopeplus, snem_update, truncated_svd_of_skinny

__all__ = [
    "p_edges",
    "q_edges",
    "u_ids",
    "v_ids",
    "wpg_edges",
    "hop_embedding",
    "hope",
    "kmeans_assign",
    "fnem_update",
    "hopeplus",
    "snem_update",
    "truncated_svd_of_skinny",
]
