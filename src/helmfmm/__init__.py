"""Directional FFT-accelerated fast multipole method for the 3D Helmholtz kernel."""

from .distributions import Distribution, generate_distribution, random_charges
from .geometry import BoundingBox, compute_root_box
from .harness import ExperimentConfig, RunRecord, run_experiment
from .kernel import ErrorReport, HelmholtzKernel, direct_sum, relative_errors
from .traversal import FmmConfig, plan_fmm, run_fmm, run_fmm_full
from .tree import ClusterTree, ParticleSet, build_tree

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "ClusterTree",
    "Distribution",
    "ErrorReport",
    "ExperimentConfig",
    "FmmConfig",
    "HelmholtzKernel",
    "ParticleSet",
    "RunRecord",
    "build_tree",
    "compute_root_box",
    "direct_sum",
    "generate_distribution",
    "plan_fmm",
    "random_charges",
    "relative_errors",
    "run_experiment",
    "run_fmm",
    "run_fmm_full",
]
