"""Neural codes, pseudomonomial ideals, and their simplicial complexes.

The library decides whether a code is intersection-complete or
max-intersection-complete by three criteria per property (brute-force
closure, a canonical-form criterion, and a criterion on the factor
complex of the complement code) over two computations: the last two read
the same maximal intervals and codewords. It exposes the full dictionary
between codes, neural ideals, Stanley-Reisner ideals, and the factor and
polar complexes obtained by polarization.

Everything is exact, deterministic combinatorics on subset bitmasks.
"""

from types import ModuleType as _ModuleType

from .classify import (
    ClassificationReport,
    DictionaryCheck,
    DictionaryReport,
    FacetWitness,
    IntersectionWitness,
    MicCertificate,
    MicCertificateEntry,
    PseudomonomialWitness,
    is_intersection_complete_bruteforce,
    is_intersection_complete_cf,
    is_intersection_complete_facets,
    is_mic_algebraic,
    is_mic_bruteforce,
    is_mic_facets,
    verify_dictionary,
)
from .codes import (
    MAX_NEURONS,
    Code,
    Interval,
    InvalidCodeError,
    full_mask,
    mask_from_neurons,
    neurons_from_mask,
    submasks,
)
from .complexes import (
    PolarFace,
    SimplicialComplex,
    SquarefreeMonomialIdeal,
    Universe,
    complex_of_ideal,
    downward_closure,
    face_to_interval,
    factor_complex,
    factor_ideal,
    ideal_of_complex,
    is_effective,
    minimal_transversals,
    polar_complex,
    polar_ideal,
    polarize,
    prime_sets,
    sr_minimal_primes,
)
from .ideals import (
    CF_MAX_N,
    CanonicalForm,
    CapExceededError,
    PrimePseudomonomialIdeal,
    Pseudomonomial,
    canonical_form,
    divides,
    evaluate,
    in_neural_ideal,
    indicator,
    interval_to_pm,
    primary_decomposition,
)
from .io import (
    ParseError,
    ParseWarning,
    parse_code,
    render_code_document,
)
from .survey import (
    SURVEY_MAX_N,
    MethodDisagreement,
    SurveyRow,
    SurveySummary,
    SurveyTooLargeError,
    code_from_id,
    summarize,
    survey,
)

__version__ = "0.1.0"

# every public name above except the subpackage modules, so that
# ``from neurocode import *`` never binds ``io`` or ``codes``
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
