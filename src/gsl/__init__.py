"""gsl — tame local behaviour of rational specializations of Galois covers
of the projective line: predictions, p-adic verification, certificates.

The public surface, by layer:

  exact       exact rational/bivariate polynomial arithmetic (UniPoly, BiPoly,
              resultants, discriminants, valuations)
  modp        the residue rings Z/p^N and its unramified extensions, towers
              included (F_p and F_{p^d} at N = 1), finite-field
              factorization and Frobenius data
  padic       the certified p-adic oracle (local_splitting_type)
  nfield      number-field arithmetic: factorization over Q and over number
              fields, adjoining roots, relative minimal polynomials
  covers      covers of the line, branch points, residue fields, bad primes
  specialize  tame predictions at specialization points and their
              verification against the oracle
  applications adequacy certificates, Frobenius prime search, obstruction
              certificates
  cli         the `gsl` command-line tool
"""

from .applications import (
    AdequacyCertificate,
    AdequacyWitness,
    ObstructionCertificate,
    ObstructionTranscript,
    ParametricObstructionReport,
    RefusedTranscript,
    adequacy_certificate,
    adequacy_certificate_for_field,
    adequate_specialization_search,
    find_frobenius_primes,
    grunwald_obstruction,
    parametric_obstruction_report,
)
from .covers import (
    BranchPoint,
    Cover,
    RelativeField,
    branch_points,
    bundled_covers,
    conservative_bad_primes,
    load_cover,
    probabilistic_galois_check,
    puiseux_at,
    roots_of_unity_check,
)
from .errors import (
    ChartMixing,
    DomainError,
    GslError,
    HypothesisViolation,
    MeetingUniquenessError,
    NonUniform,
    NonUniformRamification,
    NotFound,
    NotSeparable,
    PrecisionExhausted,
    SchemaError,
    UnstableResidueField,
    WildOrIrregular,
)
from .exact import BiPoly, Rat, UniPoly, disc_y, discriminant, resultant
from .padic import (
    LocalSplittingType,
    local_splitting_type,
    quadratic_local_class,
)
from .specialize import (
    DecompositionPrediction,
    MeetingDatum,
    ReportEntry,
    SpecializationReport,
    approximate_specialization_point,
    meeting_prime,
    meeting_primes,
    predict_decomposition,
    realize_local_class,
    specialize_poly,
    verify_specialization,
)

__version__ = "0.1.0"

__all__ = [
    "AdequacyCertificate",
    "AdequacyWitness",
    "BiPoly",
    "BranchPoint",
    "ChartMixing",
    "Cover",
    "DecompositionPrediction",
    "DomainError",
    "GslError",
    "HypothesisViolation",
    "LocalSplittingType",
    "MeetingDatum",
    "MeetingUniquenessError",
    "NonUniform",
    "NonUniformRamification",
    "NotFound",
    "NotSeparable",
    "ObstructionCertificate",
    "ObstructionTranscript",
    "ParametricObstructionReport",
    "PrecisionExhausted",
    "Rat",
    "RefusedTranscript",
    "RelativeField",
    "ReportEntry",
    "SchemaError",
    "SpecializationReport",
    "UniPoly",
    "UnstableResidueField",
    "WildOrIrregular",
    "adequacy_certificate",
    "adequacy_certificate_for_field",
    "adequate_specialization_search",
    "approximate_specialization_point",
    "branch_points",
    "bundled_covers",
    "conservative_bad_primes",
    "disc_y",
    "discriminant",
    "find_frobenius_primes",
    "grunwald_obstruction",
    "load_cover",
    "local_splitting_type",
    "meeting_prime",
    "meeting_primes",
    "parametric_obstruction_report",
    "predict_decomposition",
    "probabilistic_galois_check",
    "puiseux_at",
    "quadratic_local_class",
    "realize_local_class",
    "resultant",
    "roots_of_unity_check",
    "specialize_poly",
    "verify_specialization",
]
