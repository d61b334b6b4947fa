from .boolean import build_boolean_example
from .gaussian import gaussian_check
from .integers import integers_check
from .pert import (
    PertProject,
    Schedule,
    load_project,
    pert_algebra,
    pert_eta,
    pert_forward_pass,
    pert_gamma,
    pert_j,
    pert_j_inverse,
    pert_nu,
)
from .semilattice import (build_powerset_semilattice, incidence_transform, is_bitwise_twin,
                          semilattice_eta)

__all__ = [
    "PertProject",
    "Schedule",
    "build_boolean_example",
    "build_powerset_semilattice",
    "gaussian_check",
    "incidence_transform",
    "integers_check",
    "is_bitwise_twin",
    "load_project",
    "pert_algebra",
    "pert_eta",
    "pert_forward_pass",
    "pert_gamma",
    "pert_j",
    "pert_j_inverse",
    "pert_nu",
    "semilattice_eta",
]
