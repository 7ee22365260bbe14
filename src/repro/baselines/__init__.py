"""The 13 competitor methods of Table 3, as numpy reference implementations,
and the names of the three HOPE-family methods."""
from .birch import birch_baseline
from .bisbm import bisbm_kl_baseline, bisbm_mcmc_baseline
from .girvan_newman import girvan_newman_baseline
from .kmeans import kmeans_baseline
from .kmedoids import kmedoids_baseline
from .le import le_baseline
from .nmf import nmf_baseline
from .ppr import nrp_baseline, ppr_baseline
from .registry import BASELINES, OUR_METHODS
from .spectral import sbc_baseline, sc_baseline, scc_baseline

__all__ = [
    "BASELINES",
    "OUR_METHODS",
    "birch_baseline",
    "bisbm_kl_baseline",
    "bisbm_mcmc_baseline",
    "girvan_newman_baseline",
    "kmeans_baseline",
    "kmedoids_baseline",
    "le_baseline",
    "nmf_baseline",
    "nrp_baseline",
    "ppr_baseline",
    "sbc_baseline",
    "sc_baseline",
    "scc_baseline",
]
