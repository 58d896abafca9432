"""popnc: certified global polynomial minimization on possibly non-compact sets.

Lower bounds come from sum-of-squares membership programs over the quadratic
module generated by the constraint polynomials together with a level bound
c - f; companion hierarchies certify the Archimedean property and coercivity
numerically.  Every positive verdict ships a certificate that is re-verified
with independent polynomial arithmetic.
"""

import importlib

# public name -> the module that defines it; each module loads on the first
# access to one of its names, so `popnc verify` never loads the builder,
# the solver or the driver (PEP 562)
_EXPORTS = {
    "polynomial": ("Monomial", "Polynomial", "grlex_key", "sum_of_squared_variables"),
    "problem_io": ("ParseError", "PopProblem", "ProblemFormatError", "emit_report",
                   "format_polynomial", "parse_polynomial", "parse_problem"),
    "builder": ("MembershipProgram", "basis_size", "build_archimedean_check",
                "build_coercivity_check", "build_hierarchy_step", "build_membership_program",
                "extract_certificate", "monomial_basis"),
    "sdp": ("SdpProblem", "SdpSolution", "SdpStructureError", "Status", "dump_sdp", "solve"),
    "certificates": ("CertificateError", "GeneratorSet", "ModuleCertificate", "NotPsdError",
                     "SosDecomposition", "SosWeight", "Statement", "VerificationResult",
                     "certificate_from_payload", "certificate_to_payload", "corollary_transform",
                     "format_certificate", "gram_to_polynomial", "hierarchy_generators",
                     "sos_decompose", "statement", "verify_certificate"),
    "driver": ("HierarchyReport", "OrderOutcome", "check_archimedean",
               "check_archimedean_sufficient", "check_coercive", "minimize"),
    "cli": ("cli_main",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_MODULE_OF])


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)
