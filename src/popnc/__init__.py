"""popnc: certified global polynomial minimization on possibly non-compact sets.

Lower bounds come from sum-of-squares membership programs over the quadratic
module generated by the constraint polynomials together with a level bound
c - f; companion hierarchies certify the Archimedean property and coercivity
numerically.  Every positive verdict ships a certificate that is re-verified
with independent polynomial arithmetic.
"""

from .polynomial import Monomial, Polynomial, grlex_key, sum_of_squared_variables
from .problem_io import (
    ParseError,
    PopProblem,
    ProblemFormatError,
    emit_report,
    format_polynomial,
    parse_polynomial,
    parse_problem,
)
from .builder import (
    MembershipProgram,
    basis_size,
    build_archimedean_check,
    build_coercivity_check,
    build_hierarchy_step,
    build_membership_program,
    extract_certificate,
    monomial_basis,
)
from .sdp import (
    SdpProblem,
    SdpSolution,
    SdpStructureError,
    Status,
    dump_sdp,
    solve,
)
from .certificates import (
    CertificateError,
    GeneratorSet,
    ModuleCertificate,
    NotPsdError,
    SosDecomposition,
    SosWeight,
    Statement,
    VerificationResult,
    certificate_from_payload,
    certificate_to_payload,
    corollary_transform,
    format_certificate,
    gram_to_polynomial,
    hierarchy_generators,
    sos_decompose,
    statement,
    verify_certificate,
)
from .driver import (
    HierarchyReport,
    OrderOutcome,
    check_archimedean,
    check_archimedean_sufficient,
    check_coercive,
    minimize,
)
from .cli import cli_main

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "GeneratorSet",
    "HierarchyReport",
    "MembershipProgram",
    "ModuleCertificate",
    "Monomial",
    "NotPsdError",
    "OrderOutcome",
    "ParseError",
    "Polynomial",
    "PopProblem",
    "ProblemFormatError",
    "SdpProblem",
    "SdpSolution",
    "SdpStructureError",
    "SosDecomposition",
    "SosWeight",
    "Statement",
    "Status",
    "VerificationResult",
    "basis_size",
    "build_archimedean_check",
    "build_coercivity_check",
    "build_hierarchy_step",
    "build_membership_program",
    "certificate_from_payload",
    "certificate_to_payload",
    "check_archimedean",
    "check_archimedean_sufficient",
    "check_coercive",
    "cli_main",
    "corollary_transform",
    "dump_sdp",
    "emit_report",
    "extract_certificate",
    "format_certificate",
    "format_polynomial",
    "gram_to_polynomial",
    "grlex_key",
    "hierarchy_generators",
    "minimize",
    "monomial_basis",
    "parse_polynomial",
    "parse_problem",
    "solve",
    "sos_decompose",
    "statement",
    "sum_of_squared_variables",
    "verify_certificate",
]
