"""Exact K1-valued twisted Alexander invariants of knot group representations.

The pipeline: a meridian presentation of a knot group, a metabelian
representation built from the torsion homology of a cyclic cover, the Fox
Jacobian matrix over a truncated skew Novikov series ring (its derivatives
taken straight into Z[H] by :func:`fox_image`), a Dieudonne-style
elimination extracting a Witt-vector representative with its projected
logarithms, and an untwisting map whose commutative determinant is the
metafinite Alexander polynomial.  A fiberedness obstruction falls out of the
invertibility verdict.  All arithmetic is exact (integers and rationals).
"""

from .cover import (
    MetabelianRepError,
    alexander_presentation,
    metabelian_rep,
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
    fox_image,
    k1_invariant,
)
from .novikov import (
    DEFAULT_PRECISION,
    LogClass,
    NovikovSeries,
    SeriesError,
    WittVector,
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
from .snf import (
    IntMatrix,
    SNFResult,
    smith_normal_form,
)
from .upsilon import (
    LaurentPolyGA,
    UpsilonMatrix,
    canonical_form,
    det_commutative,
    det_upsilon,
    is_unit_laurent,
    metafinite_polynomial,
    poly_equiv,
    upsilon_elem,
    upsilon_matrix,
)
from .words import (
    Word,
    WordError,
    gen,
    reduce,
    substitute,
    word,
)

__version__ = "0.1.0"
