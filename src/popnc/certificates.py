"""What each certificate family proves, and the checker of certificates.

A module certificate witnesses an identity

    sigma_0 + sum_j sigma_j g_j + sum_l phi_l h_l  =  target - s * lambda

with each sigma given by a PSD Gram matrix over a monomial basis and each
phi_l a free polynomial.  A ``Statement`` fixes the target, the generators
and the sign s of one family (``statement``); the builder searches for
certificates of a statement, and ``verify_certificate`` checks one against
it.  Verification recomputes the identity with the polynomial arithmetic of
this package (exactly, when the data is rational) and checks the Gram
matrices for positive semidefiniteness.  Each Gram is expanded by grouping
the pairs of its basis once per basis: exactly over the common denominator
of a rational Gram, and for a float Gram with the floats of a pair-by-pair
sum in row-major order, bit for bit.  This module imports neither the
builder nor the solver, so nothing is trusted from solver bookkeeping, and
``popnc verify`` loads neither.

Also here: certificate payloads, the transformation that drops the bound
generator c - f, and the splitting of a Gram matrix into squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from .polynomial import (
    Coeff,
    Monomial,
    Polynomial,
    check_monomial,
    exact_decimal,
    grlex_key,
    sum_of_squared_variables,
)


class CertificateError(ValueError):
    """Certificate extraction or transformation failed."""


class NotPsdError(ValueError):
    """A matrix expected to be PSD has a significantly negative eigenvalue."""


# ---------------------------------------------------------------------------
# what each certificate family proves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSet:
    """Inequality and equality generators with derived degree data.

    ``cf_index`` marks the position (within ``ineq``) of a bound generator of
    the form c - f when one has been appended; it is tagged separately in
    certificates.
    """

    num_vars: int
    ineq: tuple[Polynomial, ...] = ()
    eq: tuple[Polynomial, ...] = ()
    cf_index: int | None = None

    def __post_init__(self):
        for p in (*self.ineq, *self.eq):
            if p.num_vars != self.num_vars:
                raise ValueError("generator variable count does not match")
        if self.cf_index is not None and not 0 <= self.cf_index < len(self.ineq):
            raise ValueError("cf_index out of range")

    @property
    def half_degrees(self) -> list[int]:
        """v_j = ceil(deg(g_j) / 2), recomputed from the generators."""
        return [(g.degree() + 1) // 2 for g in self.ineq]

    @property
    def eq_degrees(self) -> list[int]:
        """w_l = deg(h_l)."""
        return [h.degree() for h in self.eq]


@dataclass(frozen=True)
class Statement:
    """What a certificate of one family proves: target - s * lambda lies in
    the quadratic module of ``gens``, s being ``lambda_sign``: +1 when the
    program maximizes lambda, -1 when it minimizes it, 0 when there is no
    lambda."""

    family: str
    target: Polynomial
    gens: GeneratorSet
    lambda_sign: int

    def min_order(self) -> int:
        """Smallest order k at which the membership program is well formed."""
        return max(1, (self.target.degree() + 1) // 2, *self.gens.half_degrees,
                   *((w + 1) // 2 for w in self.gens.eq_degrees))

    def expected(self, lam: Coeff) -> Polynomial:
        """target - s * lambda, what the weights of a certificate sum to."""
        if self.lambda_sign == 0 or lam == 0:
            return self.target
        return self.target - Polynomial.constant(self.target.num_vars, self.lambda_sign * lam)


def hierarchy_generators(problem) -> GeneratorSet:
    """Generator set (g; h; c - f) with the bound generator appended last."""
    c = problem.resolved_c()
    n = problem.num_vars
    cf = Polynomial.constant(n, c) - problem.objective
    return GeneratorSet(
        num_vars=n,
        ineq=tuple(problem.inequalities) + (cf,),
        eq=tuple(problem.equalities),
        cf_index=len(problem.inequalities),
    )


def statement(family: str, subject, psi: Polynomial | None = None) -> Statement:
    """What certificates of ``family`` prove about ``subject``:

        hierarchy     f - lambda       in M(g; h; c - f)   subject: the problem
        archimedean   lambda - |x|^2   in M(g; h; c - f)   subject: the problem
        coercivity    f_d - mu         in M(|x|^2 - 1)     subject: f (of a problem: its objective)
        module        (1 + psi) f      in M(g; h)          subject: the problem; psi SOS

    Raises ValueError for an unknown family, a module statement without psi,
    and a coercivity subject that is zero or not of even degree >= 2.
    """
    if family != "coercivity":
        return bound_statement(family, subject.objective, hierarchy_generators(subject), psi)
    f = subject if isinstance(subject, Polynomial) else subject.objective
    if f.is_zero():
        raise ValueError("coercivity test is undefined for the zero polynomial")
    d = f.degree()
    if d < 2 or d % 2 != 0:
        raise ValueError(f"coercivity requires even degree >= 2, got degree {d}")
    n = f.num_vars
    sphere = sum_of_squared_variables(n) - Polynomial.constant(n, 1)
    return Statement(family, f.top_component(), GeneratorSet(num_vars=n, eq=(sphere,)), 1)


def bound_statement(family: str, f: Polynomial, gens: GeneratorSet,
                    psi: Polynomial | None = None) -> Statement:
    """The hierarchy, archimedean and module statements of ``statement``, for
    f and a generator set (g; h; c - f) that carries its bound generator."""
    if family == "hierarchy":
        return Statement(family, f, gens, 1)
    if family == "archimedean":
        return Statement(family, -sum_of_squared_variables(f.num_vars), gens, -1)
    if family != "module":
        raise ValueError(f"unknown certificate family {family!r}")
    if psi is None:
        raise ValueError("a module certificate must carry its SOS weight psi")
    ineq = tuple(g for j, g in enumerate(gens.ineq) if j != gens.cf_index)
    return Statement(family, (Polynomial.constant(f.num_vars, 1) + psi) * f,
                     GeneratorSet(num_vars=gens.num_vars, ineq=ineq, eq=gens.eq), 0)


# ---------------------------------------------------------------------------
# certificates and their check
# ---------------------------------------------------------------------------


def _pair_groups(basis: Sequence[Monomial], num_vars: int) -> tuple[np.ndarray, list[Monomial]]:
    """The s^2 pairs (i, j) of a monomial basis grouped by their product: the
    group of each pair, in row-major order, and the monomial of each group.
    Raises ValueError for a basis monomial that is no exponent vector of
    num_vars variables, or that has an exponent of 2^62 or more (int64 sums)."""
    for mono in basis:
        check_monomial(mono, num_vars)
        if any(e >= 2**62 for e in mono):
            raise ValueError(f"exponent vector {mono} has an exponent beyond 2^62")
    s = len(basis)
    exps = np.array(basis, dtype=np.int64).reshape(s, num_vars)
    sums = (exps[:, None, :] + exps[None, :, :]).reshape(s * s, num_vars)
    order = np.lexsort(sums.T)
    ordered = sums[order]
    starts = np.ones(s * s, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty(s * s, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return group, [tuple(m) for m in ordered[starts].tolist()]


def gram_to_polynomial(gram: Any, basis: Sequence[Monomial], num_vars: int) -> Polynomial:
    """Expand v' Q v over the monomial basis v.

    The coefficient of a monomial is the sum, in row-major order, of the
    entries of the pairs whose product it is, and the monomials come in the
    order of their first nonzero entry.  A float Gram is summed by
    ``np.bincount``, which adds in that order, so its floats are those of a
    loop over the pairs, bit for bit.  A Gram of ints and Fractions is summed
    exactly as integers over its common denominator (a monomial without a
    Fraction entry gets an int); any other mix is added entry by entry.
    Raises ValueError for a Gram that is not s x s over the s monomials."""
    s = len(basis)
    group, monos = _pair_groups(basis, num_vars)
    shape_error = ValueError(f"the Gram matrix is not {s} x {s}, the size of its basis")
    if isinstance(gram, np.ndarray) and gram.dtype == float:
        if gram.shape != (s, s):
            raise shape_error
        flat, kinds = gram.reshape(s * s), {float}
    else:
        rows = gram.tolist() if isinstance(gram, np.ndarray) else gram
        if len(rows) != s or any(len(row) != s for row in rows):
            raise shape_error
        flat = [q for row in rows for q in row]
        kinds = set(map(type, flat))
    if kinds <= {float}:
        flat = np.asarray(flat, dtype=float)
        present, first = np.unique(group[np.flatnonzero(flat)], return_index=True)
        keys = present[np.argsort(first)].tolist()
        sums = np.bincount(group, weights=flat, minlength=len(monos))[keys].tolist()
        return Polynomial._from_checked(num_vars, {monos[g]: v for g, v in zip(keys, sums)})
    groups = group.tolist()
    exact = kinds <= {int, Fraction}
    if exact:  # every entry as an integer over the common denominator
        ratios = [q.as_integer_ratio() for q in flat]
        common = math.lcm(*{d for _, d in ratios})
        if int not in kinds:  # the monomials whose sum is a Fraction
            fractional = set(groups)
        else:
            fractional = {g for g, q in zip(groups, flat) if q and type(q) is Fraction}
        flat = [a * (common // d) for a, d in ratios]
    totals: dict[int, Coeff] = {}
    for g, q in zip(groups, flat):
        if q != 0:
            totals[g] = totals.get(g, 0) + q
    if exact:
        totals = {g: Fraction(v, common) if g in fractional else v // common
                  for g, v in totals.items()}
    return Polynomial._from_checked(num_vars, {monos[g]: v for g, v in totals.items()})


def _gram_float(gram: Any) -> np.ndarray:
    if isinstance(gram, np.ndarray) and gram.dtype == float:
        return gram
    rows = gram.tolist() if isinstance(gram, np.ndarray) else gram
    # numerator / denominator is float(v) for a Fraction, without its generic
    # numbers.Rational path
    return np.array([[v.numerator / v.denominator if type(v) is Fraction else float(v) for v in row]
                     for row in rows])


@dataclass
class SosWeight:
    tag: str  # "sigma0" | "ineq" | "cf" | "psi" (the module family's multiplier of f)
    index: int | None
    basis: list[Monomial]
    gram: Any  # square symmetric matrix; float ndarray or nested rationals

    def polynomial(self, num_vars: int) -> Polynomial:
        return gram_to_polynomial(self.gram, self.basis, num_vars)

    def min_eigenvalue(self) -> float:
        g = _gram_float(self.gram)
        if g.size == 0:
            return 0.0
        return float(np.linalg.eigvalsh(0.5 * (g + g.T)).min())

    def frobenius(self) -> float:
        g = _gram_float(self.gram)
        return float(np.sqrt((g * g).sum()))


def _generator(gens: tuple[Polynomial, ...], index: int, name: str) -> Polynomial:
    if not 0 <= index < len(gens):
        raise ValueError(f"{name}: index {index} names no generator (there are {len(gens)})")
    return gens[index]


@dataclass
class ModuleCertificate:
    """Bound plus weights witnessing membership of target - s*lambda in M_k.
    ``residual`` is the identity residual of its last verification, None
    until one has computed it."""

    num_vars: int
    order: int
    lam: Coeff
    lam_sign: int  # s in the identity above: +1 (maximize), -1 (minimize), 0 (feasibility)
    sos_weights: list[SosWeight]
    eq_multipliers: list[tuple[int, Polynomial]] = field(default_factory=list)
    residual: Coeff | None = None
    family: str = "membership"

    def weight(self, tag: str, index: int | None = None) -> SosWeight | None:
        for w in self.sos_weights:
            if w.tag == tag and (index is None or w.index == index):
                return w
        return None

    def reconstruct(self, gens: GeneratorSet) -> Polynomial:
        """sigma_0 + sum sigma_j g_j + sum phi_l h_l from the stored weights;
        a psi weight is part of the target, not a module term.  Raises
        ValueError for a weight or multiplier index that names no generator."""
        total = Polynomial.zero(self.num_vars)
        for i, w in enumerate(self.sos_weights):
            if w.tag == "psi":
                continue
            sigma = w.polynomial(self.num_vars)
            if w.tag == "sigma0":
                total = total + sigma
            else:
                total = total + sigma * _generator(gens.ineq, w.index, f"sos weight {i} ({w.tag})")
        for i, (l, phi) in enumerate(self.eq_multipliers):
            total = total + phi * _generator(gens.eq, l, f"eq multiplier {i}")
        return total

    def to_payload(self) -> dict:
        return certificate_to_payload(self)


@dataclass
class VerificationResult:
    passed: bool
    residual: Coeff
    min_gram_eig: float
    tol: float

    def to_payload(self) -> dict:
        return {
            "passed": self.passed,
            "residual": float(self.residual),
            "min_gram_eig": self.min_gram_eig,
            "tol": self.tol,
        }


DEFAULT_RESIDUAL_TOL = 1e-5
DEFAULT_EIG_TOL = 1e-9


def verify_certificate(
    cert: ModuleCertificate,
    claim: Statement,
    tol: float = DEFAULT_RESIDUAL_TOL,
) -> VerificationResult:
    """Recompute the certificate identity of ``claim`` and Gram PSD-ness from scratch.

    Passes iff the l1 coefficient residual is <= tol * (1 + ||target||_1) and
    every Gram matrix has minimum eigenvalue >= -DEFAULT_EIG_TOL.  Failure is a
    result, not an exception; a nonzero lambda whose sign contradicts the
    claim's raises ValueError.
    """
    if cert.lam != 0 and cert.lam_sign != claim.lambda_sign:
        raise ValueError(f"lambda_sign {cert.lam_sign} contradicts the {claim.family} family, "
                         f"whose lambda_sign is {claim.lambda_sign}")
    mismatch = cert.reconstruct(claim.gens) - claim.expected(cert.lam)
    residual = mismatch.l1_norm()
    min_eig = min((w.min_eigenvalue() for w in cert.sos_weights), default=0.0)
    bound = tol * float(1 + claim.target.l1_norm())
    passed = float(residual) <= bound and min_eig >= -DEFAULT_EIG_TOL
    return VerificationResult(passed=passed, residual=residual, min_gram_eig=min_eig, tol=tol)


# ---------------------------------------------------------------------------
# quadratic-module transformation: drop the bound generator
# ---------------------------------------------------------------------------


def _merge_sigma0(w0: SosWeight, wcf: SosWeight, c: Coeff) -> SosWeight:
    """sigma_0' = sigma_0 + c * psi as a single Gram block over a merged basis."""
    basis = sorted(set(w0.basis) | set(wcf.basis), key=grlex_key)
    pos = {m: i for i, m in enumerate(basis)}
    s = len(basis)
    merged: list[list[Coeff]] = [[0] * s for _ in range(s)]
    for w, factor in ((w0, 1), (wcf, c)):
        rows = w.gram.tolist() if isinstance(w.gram, np.ndarray) else w.gram
        for i, mi in enumerate(w.basis):
            for j, mj in enumerate(w.basis):
                merged[pos[mi]][pos[mj]] += factor * rows[i][j]
    exact = any(isinstance(v, Fraction) for row in merged for v in row)
    gram = merged if exact else np.array([[float(v) for v in row] for row in merged])
    return SosWeight(tag="sigma0", index=None, basis=basis, gram=gram)


def corollary_transform(
    cert: ModuleCertificate,
    f: Polynomial,
    gens: GeneratorSet,
    c: Coeff,
) -> tuple[Polynomial, ModuleCertificate]:
    """Fold the bound-generator weight back into the constant block.

    Given a certificate of f itself (lambda = 0) over (g; h; c - f) with SOS
    weight psi on the c - f generator, returns (1 + psi) and a certificate of
    (1 + psi) * f over (g; h): the identity f = q + psi (c - f) rearranges to
    (1 + psi) f = q + c psi, and c psi is PSD-representable since c >= 0.
    The certificate keeps psi as a weight tagged ``psi``, so that it can be
    checked on its own.  The output identity is verified before returning.
    """
    if gens.cf_index is None:
        raise CertificateError("generator set carries no bound generator")
    if cert.lam_sign != 0 and abs(float(cert.lam)) > 1e-12:
        raise CertificateError("transformation applies to certificates of f itself (lambda = 0)")
    if c < 0:
        raise CertificateError("the bound c must be non-negative")
    wcf = cert.weight("cf", gens.cf_index) or cert.weight("cf")
    if wcf is None:
        raise CertificateError("certificate has no weight on the bound generator")
    w0 = cert.weight("sigma0")
    if w0 is None:
        w0 = SosWeight("sigma0", None, [tuple([0] * cert.num_vars)], [[0]])

    psi = wcf.polynomial(cert.num_vars)
    module = bound_statement("module", f, gens, psi)

    def shifted(j: int) -> int:
        return j if j < gens.cf_index else j - 1

    new_weights = [_merge_sigma0(w0, wcf, c)]
    for w in cert.sos_weights:
        if w.tag == "sigma0" or (w.tag == "cf" and w.index == gens.cf_index):
            continue
        new_weights.append(SosWeight(tag="ineq", index=shifted(w.index), basis=list(w.basis), gram=w.gram))
    new_weights.append(SosWeight(tag="psi", index=None, basis=list(wcf.basis), gram=wcf.gram))

    target = module.target
    out = ModuleCertificate(
        num_vars=cert.num_vars,
        order=cert.order,
        lam=0,
        lam_sign=0,
        sos_weights=new_weights,
        eq_multipliers=list(cert.eq_multipliers),
        family="module",
    )
    out.residual = (out.reconstruct(module.gens) - target).l1_norm()
    bound = max(
        DEFAULT_RESIDUAL_TOL * float(1 + target.l1_norm()),
        (0.0 if cert.residual is None else 10.0 * float(cert.residual)) + 1e-12,
    )
    if float(out.residual) > bound:
        raise CertificateError(
            f"transformed identity failed verification: residual {float(out.residual):.3e}"
        )
    return Polynomial.constant(cert.num_vars, 1) + psi, out


# ---------------------------------------------------------------------------
# sum-of-squares splitting
# ---------------------------------------------------------------------------


@dataclass
class SosDecomposition:
    squares: list[Polynomial]
    truncation_error: float

    def total(self) -> Polynomial:
        out = Polynomial.zero(self.squares[0].num_vars) if self.squares else None
        for s in self.squares:
            out = out + s * s
        return out


def sos_decompose(
    gram: Any,
    basis: Sequence[Monomial],
    num_vars: int | None = None,
) -> SosDecomposition:
    """Split v'Qv into explicit squares via eigendecomposition.

    Eigenvalues below 1e-7 * lambda_max are dropped; the reported
    truncation error bounds the l1 distance between v'Qv and the returned
    sum of squares.  Raises NotPsdError when the matrix is not PSD within
    DEFAULT_EIG_TOL.
    """
    g = _gram_float(gram)
    if g.shape[0] != g.shape[1] or g.shape[0] != len(basis):
        raise ValueError("Gram matrix and basis sizes do not match")
    if num_vars is None:
        num_vars = len(basis[0]) if basis else 1
    g = 0.5 * (g + g.T)
    vals, vecs = np.linalg.eigh(g)
    if vals.size and vals[0] < -DEFAULT_EIG_TOL:
        raise NotPsdError(f"minimum eigenvalue {vals[0]:.3e} is below -{DEFAULT_EIG_TOL:g}")
    lam_max = float(vals.max(initial=0.0))
    clip = 1e-7 * max(lam_max, 0.0)
    squares: list[Polynomial] = []
    dropped = 0.0
    s = len(basis)
    for i in range(s):
        lam = float(vals[i])
        vec = vecs[:, i]
        vec_l1 = float(np.abs(vec).sum())
        if lam > clip:
            coeff = math.sqrt(lam)
            terms = {m: coeff * float(v) for m, v in zip(basis, vec) if v != 0.0}
            squares.append(Polynomial(num_vars, terms))
        else:
            dropped += abs(lam) * vec_l1 * vec_l1
    slack = 1e-12 * (1.0 + float(np.abs(g).sum())) * max(1, s) ** 2
    return SosDecomposition(squares=squares, truncation_error=dropped + slack)


# ---------------------------------------------------------------------------
# payload serialization
# ---------------------------------------------------------------------------


def _num_to_payload(v: Coeff):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return float(v)


def _num_from_payload(v) -> Coeff:
    """A payload number; ValueError for a float that is not finite or a decimal exact_decimal refuses."""
    if isinstance(v, str):
        if "/" in v:
            num, den = v.split("/", 1)
            return Fraction(int(num), int(den))
        return exact_decimal(v)
    v = float(v)
    if not math.isfinite(v):
        raise ValueError(f"{v} is not a finite number")
    return v


_WEIGHT_TAGS = ("sigma0", "ineq", "cf", "psi")


def certificate_to_payload(cert: ModuleCertificate) -> dict:
    def gram_rows(gram):
        rows = gram.tolist() if isinstance(gram, np.ndarray) else gram
        return [[_num_to_payload(v) for v in row] for row in rows]

    return {
        "schema": "popnc.certificate/1",
        "family": cert.family,
        "num_vars": cert.num_vars,
        "order": cert.order,
        "lambda": _num_to_payload(cert.lam),
        "lambda_sign": cert.lam_sign,
        "residual": None if cert.residual is None else float(cert.residual),
        "sos_weights": [
            {
                "tag": w.tag,
                "index": w.index,
                "basis": [list(m) for m in w.basis],
                "gram": gram_rows(w.gram),
            }
            for w in cert.sos_weights
        ],
        "eq_multipliers": [
            {
                "index": l,
                "terms": [[list(m), _num_to_payload(cv)] for m, cv in phi.sorted_terms()],
            }
            for l, phi in cert.eq_multipliers
        ],
    }


def certificate_from_payload(payload: dict) -> ModuleCertificate:
    """Read a certificate payload.  Raises ValueError, naming the field,
    weight or multiplier at fault, for an unknown tag, an ``ineq``/``cf``
    weight or a multiplier without an integer index, a Gram that is not
    square over its basis, a number that is not finite, a multiplier that
    lists a monomial twice, and a value of the wrong kind (a null, a list or
    an object where a number, an integer, an exponent vector, a weight or a
    term belongs).  A null or missing ``residual`` reads as None."""
    where = "num_vars, order or lambda_sign"
    try:
        n, order, lam_sign = (int(payload[key]) for key in ("num_vars", "order", "lambda_sign"))
        where = "lambda"
        lam = _num_from_payload(payload["lambda"])
        weights = []
        for i, w in enumerate(payload["sos_weights"]):
            where = f"sos weight {i}"
            tag, index = w["tag"], w["index"]
            where = f"sos weight {i} ({tag})"
            if tag not in _WEIGHT_TAGS:
                raise ValueError(f"unknown tag; the tags are {', '.join(_WEIGHT_TAGS)}")
            if tag in ("ineq", "cf") and type(index) is not int:
                raise ValueError(f"the index must be an integer, got {index!r}")
            where = f"sos weight {i} ({tag}), its basis"
            basis = [tuple(int(e) for e in m) for m in w["basis"]]
            where = f"sos weight {i} ({tag}), its gram"
            rows = [[_num_from_payload(v) for v in row] for row in w["gram"]]
            if len(rows) != len(basis) or any(len(row) != len(basis) for row in rows):
                raise ValueError(f"not {len(basis)} x {len(basis)}, the size of its basis")
            exact = any(isinstance(v, Fraction) for row in rows for v in row)
            gram = rows if exact else np.array(rows, dtype=float)
            weights.append(SosWeight(tag=tag, index=index, basis=basis, gram=gram))
        mults = []
        for i, m in enumerate(payload.get("eq_multipliers", [])):
            where = f"eq multiplier {i}"
            if type(m["index"]) is not int:
                raise ValueError(f"the index must be an integer, got {m['index']!r}")
            terms = {}
            for mono, cv in m["terms"]:
                mono = tuple(int(e) for e in mono)
                if mono in terms:
                    raise ValueError(f"the monomial {list(mono)} is listed twice")
                terms[mono] = _num_from_payload(cv)
            mults.append((m["index"], Polynomial(n, terms)))
        where = "residual"
        residual = payload.get("residual")
        residual = None if residual is None else float(residual)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    return ModuleCertificate(
        num_vars=n,
        order=order,
        lam=lam,
        lam_sign=lam_sign,
        sos_weights=weights,
        eq_multipliers=mults,
        residual=residual,
        family=payload.get("family", "membership"),
    )


def format_certificate(cert: ModuleCertificate, drop_below: float = 1e-9) -> str:
    """Printable certificate; near-zero weight blocks are omitted from the text
    (they remain part of the stored certificate and of verification)."""
    from .problem_io import format_polynomial

    def rounded(p: Polynomial) -> Polynomial:
        return Polynomial(p.num_vars, {m: float("%.6g" % float(cv)) for m, cv in p.terms.items()})

    lines = [f"order k = {cert.order}", f"lambda = {float(cert.lam):.6g}"]
    for w in cert.sos_weights:
        if w.frobenius() < drop_below:
            continue
        name = {"sigma0": "sigma_0", "cf": "sigma[c-f]", "psi": "psi"}.get(w.tag, f"sigma[{(w.index or 0) + 1}]")
        lines.append(f"{name} = {format_polynomial(rounded(w.polynomial(cert.num_vars)))}")
    for l, phi in cert.eq_multipliers:
        if float(phi.l1_norm()) < drop_below:
            continue
        lines.append(f"phi[{l + 1}] = {format_polynomial(rounded(phi))}")
    lines.append("identity residual (l1) = "
                 + ("not computed" if cert.residual is None else f"{float(cert.residual):.3e}"))
    return "\n".join(lines)
