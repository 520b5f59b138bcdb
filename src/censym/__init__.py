"""Exact centrosymmetric matrix algebras over pluggable commutative rings.

The package constructs the subalgebra of matrices fixed by conjugation
with the exchange (anti-diagonal) matrix, over exact coefficient rings
(integers, rationals, modular rings, group rings of the order-two cyclic
group, nested as needed), and machine-checks its structural story: the
canonical basis and structure constants, the separable Frobenius extension
inside the full matrix algebra, explicit isomorphism and Morita witnesses,
cell chains, heredity ideals, and centres.  Everything is verified in
exact arithmetic; the ``censym`` command drives the suites.
"""

from .algebra import (
    BasedModule,
    LinearMapWitness,
    StructureAlgebra,
    algebra_of_censym,
    centre,
    check_witness,
    direct_product,
    full_matrix_algebra,
    ideal_generated,
    quotient_by_ideal,
    subalgebra_from_vectors,
)
from .basis import (
    BasisIndex,
    CentroMatrix,
    canonical_basis,
    canonical_indices,
    coords,
    from_coords,
    is_centrosymmetric,
    rank_of,
    structure_constants,
)
from .cellular import (
    CellChainWitness,
    CellIdealWitness,
    HeredityWitness,
    canonical_cell_witness,
    cell_chain_even,
    cell_chain_odd,
    heredity_check,
    quasi_hereditary_chain_odd,
    verify_cell_chain,
    verify_cell_ideal,
)
from .frobenius import (
    FrobeniusSystem,
    centralizer_membership,
    e_map,
    separability_check,
    splitness_check,
    verify_frobenius_system,
)
from .linalg import FreenessUndetermined
from .matrices import Matrix, exchange, matrix_unit, symmetry_class
from .reports import Report
from .rings import (
    GroupRingC2,
    IntegerRing,
    ModularRing,
    RationalRing,
    Ring,
    RingError,
    RingMismatchError,
    ring_from_literal,
)
from .structure import (
    WedderburnSplit,
    endring_odd,
    iso_even,
    iso_odd_quotient,
    iso_s2,
    morita_column_iso,
    s3_presentation,
    wedderburn_split,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
