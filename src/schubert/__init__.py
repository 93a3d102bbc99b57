"""Exact classical and quantum Schubert calculus on Grassmannians via
shift derivations on the exterior algebra of a free module."""

from .derivations import (
    DPolynomial,
    apply_operator,
    inverse_components,
    iterated_d1,
    pieri_d,
    render_dpolynomial,
)
from .exterior_core import (
    InvalidInputError,
    KVector,
    Partition,
    QInt,
    SchubertSymbol,
    fundamental,
    normalize,
    parse_kvector,
    partition_to_symbol,
    render_kvector,
    symbol_to_partition,
    wedge,
)
from .giambelli_ring import (
    PresentationReport,
    giambelli_det,
    reduce_generator,
    render_presentation,
    verify_presentation,
    y_polynomials,
)
from .grassmann_contexts import (
    GrassmannContext,
    StructureTable,
    box_partitions,
    multiply,
    poincare_pair,
    quantum_pieri,
    reduce_kvector,
    structure_table,
)
from .schur_oracle import leibniz_d, lr_coefficient, verify_jacobi_trudi

__all__ = [
    "DPolynomial",
    "GrassmannContext",
    "InvalidInputError",
    "KVector",
    "Partition",
    "PresentationReport",
    "QInt",
    "SchubertSymbol",
    "StructureTable",
    "apply_operator",
    "box_partitions",
    "fundamental",
    "giambelli_det",
    "inverse_components",
    "iterated_d1",
    "leibniz_d",
    "lr_coefficient",
    "multiply",
    "normalize",
    "parse_kvector",
    "partition_to_symbol",
    "pieri_d",
    "poincare_pair",
    "quantum_pieri",
    "reduce_generator",
    "reduce_kvector",
    "render_dpolynomial",
    "render_kvector",
    "render_presentation",
    "structure_table",
    "symbol_to_partition",
    "verify_jacobi_trudi",
    "verify_presentation",
    "wedge",
    "y_polynomials",
]

__version__ = "1.0.0"
