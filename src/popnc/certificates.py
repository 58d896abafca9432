"""What each certificate family proves, and the checker of certificates.

A module certificate witnesses an identity

    sigma_0 + sum_j sigma_j g_j + sum_l phi_l h_l  =  target - s * lambda

with each sigma given by a PSD Gram matrix over a monomial basis and each
phi_l a free polynomial.  A ``Statement`` fixes the target, the generators
and the sign s of one family (``statement``); the builder searches for
certificates of a statement, and ``verify_certificate`` checks one against
it.  Verification recomputes the identity (exactly, when the data is
rational) and checks the Gram matrices for positive semidefiniteness.  Each
Gram is expanded by grouping the pairs of its basis once per basis: exactly
over the common denominator of a rational Gram, and for a float Gram with
the floats of a pair-by-pair sum in row-major order, bit for bit; the
expansion is a ``Polynomial``, and the identity is summed in ``Polynomial``
arithmetic (``identity_residual``).  This module imports neither the
builder nor the solver, so nothing is trusted from solver bookkeeping, and
``popnc verify`` loads neither.

A Gram matrix is one of two types: a float ndarray, or a ``RationalGram`` of
integer numerators over one denominator.  ``SosWeight`` makes any other
matrix one of the two when it is built (``_as_gram``): a float Gram when it
holds a float anywhere, else a rational one.

Also here: certificate payloads, the transformation that drops the bound
generator c - f, and the splitting of a Gram matrix into squares.  A payload
Gram of JSON numbers reads as a float ndarray and one of "p/q" strings as a
``RationalGram``; a Gram that mixes the two is a float Gram.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Any, Sequence

import numpy as np

from .polynomial import (
    Coeff,
    Monomial,
    Polynomial,
    check_monomial,
    grlex_key,
    read_number,
    sum_of_squared_variables,
    write_number,
)
from .termarrays import FLOAT, FRACTION, Coefficients, fold, product_groups


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


@dataclass(frozen=True)
class RationalGram:
    """A rational Gram matrix as integer numerators over one denominator, the
    least common one of its entries: entry (i, j) is num[i, j] / den, with num
    an object array of Python ints (exact at every size) and den > 0."""

    num: np.ndarray
    den: int

    def tolist(self) -> list[list[Fraction]]:
        return [[Fraction(a, self.den) for a in row] for row in self.num.tolist()]


def _numerators_over(p: Sequence[int], q: Sequence, dens: dict, s: int) -> RationalGram:
    """The s x s matrix of the entries p[i] / dens[q[i]], row-major, as
    integer numerators over their least common denominator."""
    den = math.lcm(*dens.values())
    scale = {d: den // v for d, v in dens.items()}
    num = list(map(mul, p, map(scale.__getitem__, q)))
    least = math.gcd(den, *num)
    if least > 1:
        num, den = [a // least for a in num], den // least
    return RationalGram(np.array(num, dtype=object).reshape(s, s), den)


def _as_gram(gram: Any, s: int) -> np.ndarray | RationalGram:
    """A Gram matrix over s basis monomials as one of its two types.  A float
    ndarray or a ``RationalGram`` is returned as is.  Any other array or list
    of rows is a float ndarray when it holds a float anywhere (a Fraction among
    them rounded once), else a ``RationalGram`` of its ints and Fractions.
    Raises ValueError for a Gram that is not s x s."""
    if isinstance(gram, RationalGram) or (isinstance(gram, np.ndarray) and gram.dtype == float):
        if (gram.num if isinstance(gram, RationalGram) else gram).shape != (s, s):
            raise ValueError(f"not {s} x {s}, the size of its basis")
        return gram
    rows = gram.tolist() if isinstance(gram, np.ndarray) else gram
    if len(rows) != s or any(len(row) != s for row in rows):
        raise ValueError(f"not {s} x {s}, the size of its basis")
    flat = [v for row in rows for v in row]
    if all(issubclass(t, numbers.Rational) for t in set(map(type, flat))):
        q = [int(v.denominator) for v in flat]
        return _numerators_over([int(v.numerator) for v in flat], q, {d: d for d in set(q)}, s)
    # numerator / denominator is float(v) for a Fraction, without its generic
    # numbers.Rational path
    return np.array([v.numerator / v.denominator if type(v) is Fraction else float(v) for v in flat],
                    dtype=float).reshape(s, s)


def _pair_groups(basis: Sequence[Monomial], num_vars: int) -> tuple[np.ndarray, np.ndarray]:
    """The s^2 pairs (i, j) of a monomial basis grouped by their product: the
    group of each pair, in row-major order, and the exponent vector of each
    group's monomial, a row each, numbered in the lexicographic order of the
    reversed exponent vectors.  Raises ValueError for a basis monomial that
    is no exponent vector of num_vars variables, or that has an exponent of
    2^62 or more (int64 sums)."""
    s = len(basis)
    try:
        exps = np.array(basis, dtype=np.int64).reshape(s, num_vars)
    except (OverflowError, TypeError, ValueError):
        exps = None
    if exps is None or not set(map(type, itertools.chain.from_iterable(basis))) <= {int} or (exps < 0).any():
        for mono in basis:  # the message of the first monomial at fault
            check_monomial(mono, num_vars)
    if exps is None or (exps >= 2**62).any():
        mono = next(m for m in basis if any(e >= 2**62 for e in m))
        raise ValueError(f"exponent vector {mono} has an exponent beyond 2^62")
    groups, rows = product_groups([(exps, exps)], num_vars)
    return groups[0], rows


def _expand(gram: Any, basis: Sequence[Monomial], num_vars: int) -> Polynomial:
    """v' Q v as ``gram_to_polynomial`` orders and sums its terms: one
    ``fold`` of the nonzero Gram entries."""
    s = len(basis)
    group, monos = _pair_groups(basis, num_vars)
    gram = _as_gram(gram, s)
    flat = (gram.num if isinstance(gram, RationalGram) else gram).reshape(s * s)
    nonzero = np.flatnonzero(flat)
    k, entries = len(nonzero), flat[nonzero]
    if isinstance(gram, RationalGram):
        coeffs = Coefficients(np.full(k, FRACTION, dtype=np.int8), np.zeros(k), entries, gram.den)
    else:
        coeffs = Coefficients(np.full(k, FLOAT, dtype=np.int8), entries)
    present, sums = fold(group[nonzero], coeffs, len(monos))
    return Polynomial.from_arrays(num_vars, monos[present], sums)


def gram_to_polynomial(gram: Any, basis: Sequence[Monomial], num_vars: int) -> Polynomial:
    """Expand v' Q v over the monomial basis v.

    The coefficient of a monomial is the sum, in row-major order, of the
    entries of the pairs whose product it is, and the monomials come in the
    order of their first nonzero entry.  A float Gram is summed by
    ``np.bincount``, which adds in that order, so its floats are those of a
    loop over the pairs, bit for bit.  A ``RationalGram`` sums its numerators
    per monomial in one reduction and gives each monomial the Fraction of its
    sum over the denominator.  Any other Gram is first made one of the two
    (``_as_gram``).  Raises ValueError for a Gram that is not s x s over the s
    monomials."""
    return _expand(gram, basis, num_vars)


def _gram_float(gram: np.ndarray | RationalGram) -> np.ndarray:
    if isinstance(gram, RationalGram):  # int true division rounds correctly, as float(v) does
        return (gram.num / gram.den).astype(float)
    return gram


@dataclass(frozen=True)
class SosWeight:
    """A weight does not change once built, so its expansion v' Q v
    (``polynomial``) and its float Gram are computed on first use and
    kept."""

    tag: str  # "sigma0" | "ineq" | "cf" | "psi" (the module family's multiplier of f)
    index: int | None
    basis: list[Monomial]
    # square symmetric matrix over the basis: a float ndarray or a RationalGram;
    # any other (nested lists, say) is made one of the two here (``_as_gram``)
    gram: np.ndarray | RationalGram
    _expansions: dict[int, Polynomial] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gram", _as_gram(self.gram, len(self.basis)))

    def polynomial(self, num_vars: int) -> Polynomial:
        """v' Q v, as ``gram_to_polynomial`` gives it."""
        if num_vars not in self._expansions:
            self._expansions[num_vars] = _expand(self.gram, self.basis, num_vars)
        return self._expansions[num_vars]

    @functools.cached_property
    def _float(self) -> np.ndarray:
        return _gram_float(self.gram)

    def min_eigenvalue(self) -> float:
        g = self._float
        if g.size == 0:
            return 0.0
        return float(np.linalg.eigvalsh(0.5 * (g + g.T)).min())

    def frobenius(self) -> float:
        g = self._float
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

    def to_payload(self) -> dict:
        return certificate_to_payload(self)


def claimed_statement(cert: ModuleCertificate, subject) -> Statement:
    """The statement of the certificate's family about ``subject``; for the
    module family, with the polynomial of the certificate's psi weight."""
    psi = cert.weight("psi")
    n = cert.num_vars
    return statement(cert.family, subject, None if psi is None else psi.polynomial(n))


def _same_vars(a: int, b: int) -> None:
    if a != b:
        raise ValueError(f"dimension mismatch: {a} vs {b} variables")


def identity_residual(cert: ModuleCertificate, claim: Statement) -> Coeff:
    """The l1 norm of sigma_0 + sum_j sigma_j g_j + sum_l phi_l h_l -
    (target - s * lambda), in ``Polynomial`` arithmetic, each sigma the
    expansion of its Gram: the parts and -(target - s * lambda) added at
    once by ``Polynomial.sum``, bit for bit as adding them in that order.
    A psi weight is part of the target, not a module term.  Raises ValueError for a weight or
    multiplier index that names no generator and a variable count that
    differs from the claim's."""
    n = cert.num_vars
    if n < 1:
        raise ValueError(f"num_vars must be >= 1, got {n}")
    parts = []
    for i, w in enumerate(cert.sos_weights):
        if w.tag == "psi":
            continue
        sigma = w.polynomial(n)
        if w.tag != "sigma0":
            g = _generator(claim.gens.ineq, w.index, f"sos weight {i} ({w.tag})")
            _same_vars(n, g.num_vars)
            sigma = sigma * g
        parts.append(sigma)
    for i, (l, phi) in enumerate(cert.eq_multipliers):
        h = _generator(claim.gens.eq, l, f"eq multiplier {i}")
        _same_vars(phi.num_vars, h.num_vars)
        _same_vars(n, phi.num_vars)
        parts.append(phi * h)
    _same_vars(n, claim.target.num_vars)
    expected = claim.target
    if claim.lambda_sign != 0 and cert.lam != 0:
        expected = expected - Polynomial.constant(n, claim.lambda_sign * cert.lam)
    return Polynomial.sum([*parts, -expected], n).l1_norm()


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
    residual = identity_residual(cert, claim)
    min_eig = min((w.min_eigenvalue() for w in cert.sos_weights), default=0.0)
    bound = tol * float(1 + claim.target.l1_norm())
    passed = float(residual) <= bound and min_eig >= -DEFAULT_EIG_TOL
    return VerificationResult(passed=passed, residual=residual, min_gram_eig=min_eig, tol=tol)


# ---------------------------------------------------------------------------
# quadratic-module transformation: drop the bound generator
# ---------------------------------------------------------------------------


def _merge_sigma0(w0: SosWeight, wcf: SosWeight, c: Coeff) -> SosWeight:
    """sigma_0' = sigma_0 + c * psi as a single Gram block over a merged basis;
    a float Gram when either Gram or c is a float, else a rational one."""
    basis = sorted(set(w0.basis) | set(wcf.basis), key=grlex_key)
    pos = {m: i for i, m in enumerate(basis)}
    s = len(basis)
    merged: list[list[Coeff]] = [[0] * s for _ in range(s)]
    for w, factor in ((w0, 1), (wcf, c)):
        rows = w.gram.tolist()
        for i, mi in enumerate(w.basis):
            for j, mj in enumerate(w.basis):
                merged[pos[mi]][pos[mj]] += factor * rows[i][j]
    return SosWeight(tag="sigma0", index=None, basis=basis, gram=merged)


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
    out.residual = identity_residual(out, module)
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


def sos_decompose(
    gram: Any,
    basis: Sequence[Monomial],
    num_vars: int | None = None,
) -> SosDecomposition:
    """Split v'Qv into explicit squares via eigendecomposition.

    Eigenvalues below 1e-7 * lambda_max are dropped; the reported
    truncation error bounds the l1 distance between v'Qv and the returned
    sum of squares.  Raises NotPsdError when the matrix is not PSD within
    DEFAULT_EIG_TOL, and ValueError for a Gram that is not s x s over the s
    basis monomials.
    """
    g = _gram_float(_as_gram(gram, len(basis)))
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


def _num_from_payload(v) -> Coeff:
    """A payload number: a string read exactly, a JSON number as a finite float."""
    if isinstance(v, str):
        return read_number(v, True)
    if v is True or v is False:  # float() would read them as 1.0 and 0.0
        raise ValueError(f"a number must be a JSON number or a string, got {v!r}")
    if not math.isfinite(v := float(v)):
        raise ValueError(f"{v} is not a finite number")
    return v


def _gram_from_payload(rows, s: int) -> Any:
    """A payload Gram over a basis of s monomials, a list of rows.  An s x s
    Gram of JSON numbers is read as one float ndarray, and one of strings as
    one ``RationalGram``.  Any other Gram, and one with a number these
    refuse, is read number by number, which words every error; ``SosWeight``
    then makes it a float Gram (a JSON number reads as a float) or refuses
    its shape.  Raises ValueError for a Gram that is not a list of lists."""
    if type(rows) is not list or not all(type(row) is list for row in rows):
        raise ValueError("not a list of rows")
    if len(rows) == s and all(len(row) == s for row in rows):
        kinds: set[type] = set()
        for row in rows:
            kinds.update(map(type, row))
        if kinds <= {float, int}:  # a bool is no int here
            try:
                gram = np.array(rows, dtype=float).reshape(s, s)
                if np.isfinite(gram).all():
                    return gram
            except OverflowError:  # an int beyond the float range
                pass
        elif kinds == {str}:
            return _rational_gram(rows)
    return [[_num_from_payload(v) for v in row] for row in rows]


# a row of strings "p/q" of ASCII digits, p signed, joined by commas (matched
# row by row: the matcher's memory grows with the repetitions it matches)
_PQ_ROW = re.compile(r"-?[0-9]+/[0-9]+(?:,-?[0-9]+/[0-9]+)*")


def _rational_gram(rows: list[list[str]]) -> RationalGram:
    """A square matrix of numbers written as strings, as integer numerators
    over their least common denominator.  When every string is a "p/q" of
    ASCII digits, at most 308 characters long, with q > 0, ``read_number``
    would read each as Fraction(int(p), int(q)) by its fast path, so the
    integers are read at once; else each string is read by ``read_number``,
    which words the error of one it refuses."""
    texts = [v for row in rows for v in row]
    lines = list(map(",".join, rows))
    dens: dict = {}
    if all(map(_PQ_ROW.fullmatch, lines)) and max(map(len, texts)) <= 308:
        tokens = ",".join(lines).replace("/", ",").split(",")
        if len(tokens) == 2 * len(texts):  # no string holds a comma
            p, q = list(map(int, tokens[0::2])), tokens[1::2]
            dens = {d: int(d) for d in set(q)}  # a Gram has few distinct denominators
    if not dens or 0 in dens.values():  # not all of the fast path's forms, or q = 0
        p, q = zip(*(read_number(t, True).as_integer_ratio() for t in texts))
        dens = {d: d for d in set(q)}
    return _numerators_over(p, q, dens, len(rows))


def _integer(v, what: str) -> int:
    if type(v) is not int:  # a JSON integer, not a bool, a float or a string
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


_WEIGHT_TAGS = ("sigma0", "ineq", "cf", "psi")


def certificate_to_payload(cert: ModuleCertificate) -> dict:
    return {
        "schema": "popnc.certificate/1",
        "family": cert.family,
        "num_vars": cert.num_vars,
        "order": cert.order,
        "lambda": write_number(cert.lam),
        "lambda_sign": cert.lam_sign,
        "residual": None if cert.residual is None else float(cert.residual),
        "sos_weights": [
            {
                "tag": w.tag,
                "index": w.index,
                "basis": [list(m) for m in w.basis],
                "gram": [[write_number(v) for v in row] for row in w.gram.tolist()],
            }
            for w in cert.sos_weights
        ],
        "eq_multipliers": [
            {
                "index": l,
                "terms": [[list(m), write_number(cv)] for m, cv in phi.sorted_terms()],
            }
            for l, phi in cert.eq_multipliers
        ],
    }


def certificate_from_payload(payload: dict) -> ModuleCertificate:
    """Read a certificate payload.  Raises ValueError, naming the field,
    weight or multiplier at fault, for an unknown tag, a Gram that is no list
    of rows or not square over its basis, a number ``read_number`` or the
    float range refuses, a monomial listed twice in a multiplier, anything
    but a JSON integer where an integer belongs, and a null, a list or an
    object where a number, an exponent vector, a weight or a term belongs.
    A null or missing ``residual`` reads as None."""
    where = "num_vars, order or lambda_sign"
    try:
        n, order, lam_sign = (_integer(payload[key], key) for key in ("num_vars", "order", "lambda_sign"))
        where = "lambda"
        lam = _num_from_payload(payload["lambda"])
        weights = []
        for i, w in enumerate(payload["sos_weights"]):
            where = f"sos weight {i}"
            tag, index = w["tag"], w["index"]
            where = f"sos weight {i} ({tag})"
            if tag not in _WEIGHT_TAGS:
                raise ValueError(f"unknown tag; the tags are {', '.join(_WEIGHT_TAGS)}")
            if tag in ("ineq", "cf"):
                _integer(index, "the index")
            where = f"sos weight {i} ({tag}), its basis"
            basis = [tuple(_integer(e, "an exponent") for e in m) for m in w["basis"]]
            where = f"sos weight {i} ({tag}), its gram"
            weights.append(SosWeight(tag=tag, index=index, basis=basis,
                                     gram=_gram_from_payload(w["gram"], len(basis))))
        mults = []
        for i, m in enumerate(payload.get("eq_multipliers", [])):
            where = f"eq multiplier {i}"
            terms = {}
            for mono, cv in m["terms"]:
                mono = tuple(_integer(e, "an exponent") for e in mono)
                if mono in terms:
                    raise ValueError(f"the monomial {list(mono)} is listed twice")
                terms[mono] = _num_from_payload(cv)
            mults.append((_integer(m["index"], "the index"), Polynomial(n, terms)))
        where = "residual"
        residual = payload.get("residual")
        residual = None if residual is None else _num_from_payload(residual)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    return ModuleCertificate(
        num_vars=n,
        order=order,
        lam=lam,
        lam_sign=lam_sign,
        sos_weights=weights,
        eq_multipliers=mults,
        residual=residual,
        family=payload["family"],
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
