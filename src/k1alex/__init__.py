"""Exact K1-valued twisted Alexander invariants of knot group representations.

The pipeline: a meridian presentation of a knot group, a metabelian
representation built from the torsion homology of a cyclic cover, the Fox
Jacobian matrix over a truncated skew Novikov series ring, a Dieudonne-style
elimination extracting a Witt-vector representative with its projected
logarithms, and an untwisting map whose commutative determinant is the
metafinite Alexander polynomial.  A fiberedness obstruction falls out of the
invertibility verdict.  All arithmetic is exact (integers and rationals).
"""

from .cover import (
    IntMatrix,
    MetabelianRepError,
    SNFResult,
    alexander_presentation,
    metabelian_rep,
    smith_normal_form,
    trivial_rep,
)
from .grouprings import (
    FiniteAbelianGroup,
    GroupAlgebraElem,
    GroupAut,
    GroupError,
    MetaRep,
    OrbitClass,
    gr_inverse,
    gr_is_unit,
    orbit_project,
)
from .k1core import (
    K1Report,
    NovikovMatrix,
    ObstructionReport,
    build_fox_matrix,
    eliminate,
    fibered_obstruction,
    k1_invariant,
    rep_image,
)
from .novikov import (
    DEFAULT_PRECISION,
    LogClass,
    NovikovSeries,
    SeriesError,
    WittVector,
    log_series,
    ns_invert,
    ns_log,
    witt_normalize,
)
from .presentation import (
    MeridianPresentation,
    NielsenMove,
    ParseError,
    RepViolation,
    apply_nielsen,
    builtin,
    builtin_names,
    conjugate_presentation,
    parse_presentation,
    serialize_presentation,
    transport_rep,
    validate_rep,
)
from .upsilon import (
    LaurentPolyGA,
    UpsilonMatrix,
    canonical_form,
    det_commutative,
    is_unit_laurent,
    metafinite_polynomial,
    poly_equiv,
    upsilon_elem,
    upsilon_matrix,
)
from .words import (
    FreeRingElem,
    Word,
    WordError,
    fox_derivative,
    gen,
    reduce,
    substitute,
    word,
)

__version__ = "0.1.0"
