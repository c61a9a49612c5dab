"""cbmlab: quantitative invariants for ordered semigroups and contact domains.

The package computes relative growth rates and the pseudo-metrics they
induce on bi-invariantly ordered semigroups, order-derived norms and their
stabilization, containment distances between star-shaped domains given by
radial functions, certified distance brackets for split toric contact
domains, one-sided distance bounds between contact forms, and a numerical
harness for a quasi-isometric embedding built from spoke skeletons.
"""

from .errors import (
    CbmlabError,
    InvalidInputError,
    InvariantViolation,
    PreconditionError,
    PrimePairError,
    SearchBoundError,
    UnsupportedDomainError,
)
from .ordered import (
    Element,
    GrowthRateReport,
    Method,
    ModelKind,
    OrderedModel,
    OrderVariant,
    RhoEstimate,
    growth_distance,
    min_power,
    rho_plus,
    rho_plus_primes,
)
from .norms import NormReport, norm, stabilization
from .starshape import (
    DirectionGrid,
    QiReport,
    RadialSet,
    SkeletonSpec,
    ball,
    centered_square,
    delta,
    log_delta,
    lshape_array,
    qi_verify,
    scale,
    scale_pow,
    skeleton_region,
)
from .domains import (
    BoundInterval,
    DcResult,
    HamiltonianDomain,
    RgrCbmReport,
    SplitToricDomain,
    SqueezabilityVerdict,
    csh,
    dc_toric,
    dcbm_toric,
    hamiltonian_to_domain,
    is_squeezable_toric,
    rescale_cover,
    rgr_vs_cbm,
)
from .forms import (
    ContactFormRep,
    ContactMapRep,
    FormsDistanceReport,
    SampledManifold,
    dcbm_forms,
    dcbm_forms_lower_volume,
    dcbm_forms_upper,
    pullback,
    w_alpha_volume,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
