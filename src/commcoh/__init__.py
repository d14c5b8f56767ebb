"""Exact cohomology for commutative Lie algebras in characteristic 2."""

from .field import GF2, FiniteField, make_field
from .linalg import (
    Matrix,
    SizeCapError,
    Subspace,
    entry_cap_override,
    image_basis,
    kernel_basis,
    quotient_basis,
    rank,
    solve,
)
from .algebra import (
    AlgebraPresentation,
    AxiomError,
    ModulePresentation,
    PresentationError,
    abelian,
    adjoint_module,
    dim2,
    dual_module,
    heisenberg,
    import_algebra,
    import_module,
    module_from_actions,
    trivial_module,
    zassenhaus_e,
    zassenhaus_f,
)
from .cochain import (
    Cochain,
    CochainSpace,
    DegreeCapError,
    cochain_space,
    contract,
    degree_cap_override,
    delta,
    differential_matrix,
    evaluate,
    include_cochain,
    inclusion_matrix,
    lie_derivative,
)
from .cohomology import CohomologyResult, NotACocycleError, coboundary_witness, cohomology
from .cup import RingTable, cup, ring_table
from .morse import (
    BasedComplex,
    Matching,
    MorseError,
    complex_from_cochains,
    greedy_matching,
    heisenberg_matching,
    morse_complex,
    validate_matching,
)

# the structure maps, loaded on first access (PEP 562) so that importing the
# package does not compile them
_STRUCTURE = (
    "alternating_invariant_forms",
    "base_change",
    "central_extension",
    "comparison_comm_to_leibniz",
    "comparison_lie_to_comm",
    "exact_sequence_check",
)

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_STRUCTURE))


def __getattr__(name):
    if name not in _STRUCTURE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import structure

    value = globals()[name] = getattr(structure, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_STRUCTURE))
