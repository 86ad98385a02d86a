"""Differentiable sparse bundle adjustment with implicit gradients.

Subpackages by responsibility:

- ``geometry``: SE(3) poses, pinhole projection, analytic jacobians
- ``problem``: factor graph, robust kernels, observation models
- ``solver``: Levenberg-Marquardt with Schur landmark elimination
- ``implicit``: gradients w.r.t. observation-model parameters at the optimum
- ``temporal``: multi-frame trajectory / descriptor consistency energies
- ``initializer``: five-point relative pose, triangulation, inverse-depth
  fusion, PnP, window assembly
- ``scene`` / ``trajectory`` / ``cli``: synthetic harness, metrics, driver
"""

from .errors import GradbaError
from .geometry import CameraIntrinsics, Pose, project, projection_jacobians, se3_retract
from .problem import (Problem, RobustKernel, ScalePrior, StateVector,
                      robust_terms, total_energy)
from .solver import SolverSettings, SolveReport, linearize, lm_step, optimize, schur_solve
from .implicit import (ImplicitGradRequest, ImplicitGradReport,
                       implicit_gradient, unrolled_gradient_oracle)

__all__ = [
    "GradbaError", "CameraIntrinsics", "Pose", "project",
    "projection_jacobians", "se3_retract", "Problem", "RobustKernel",
    "ScalePrior", "StateVector", "robust_terms",
    "total_energy", "SolverSettings", "SolveReport", "linearize", "lm_step",
    "optimize", "schur_solve", "ImplicitGradRequest", "ImplicitGradReport",
    "implicit_gradient", "unrolled_gradient_oracle",
]
__version__ = "0.1.0"
