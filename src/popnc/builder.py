"""Assembly of truncated quadratic-module membership programs as SDPs.

A membership program at order k asks for sum-of-squares weights sigma_j with
Gram bases of degree <= k - v_j (v_j the generator half-degree, v_0 = 0 for
the constant generator) and free polynomial multipliers phi_l of degree
<= 2k - w_l such that

    sigma_0 + sum_j sigma_j * g_j + sum_l phi_l * h_l  (+/- lambda)  =  target

holds as a polynomial identity of degree <= 2k.  Coefficient matching over
the monomials of degree <= 2k yields the linear constraints of a
block-diagonal semidefinite program; the decision scalar lambda (when
present) and the phi coefficients enter as free variables.  The builder
writes the constraints as the solver reads them: per block the (row, r, c,
value) entries of its Gram pairs r <= c, and the free-variable matrix B.

Rows are assembled on exponent arrays: every term of the identity (a Gram
pair by a generator term, a multiplier basis monomial by a generator term,
the target's terms and lambda's constant) is grouped by its monomial in one
``termarrays.product_groups`` call, which gives each group's exponent vector.
The groups that keep a term after ``_reduce_bases`` are the rows, put in
graded-lex order by one array sort of those vectors, and the entries, B and
b are scattered from arrays.  Distinct generator terms give distinct
products, so each (row, r, c) and each (row, column) of B holds one term.

What each certificate family proves -- its target, generators and the
sign of lambda -- is a ``certificates.Statement``; the hierarchy step, the
boundedness test and the coercivity test build their programs from it, and
``extract_certificate`` maps an optimal solver point back to a certificate
of it, which ``certificates.verify_certificate`` then checks.

Sign symmetry: the sign flips x_i -> -x_i that leave the target and every
generator unchanged form a group, given by a GF(2) basis (``sign_flips``).
Averaging a certificate over that group keeps it a certificate with the same
lambda, and the averaged one has Gram entries only between monomials of one
parity class (``parity_classes``) and multiplier terms only of class 0.  So
the builder emits only same-class Gram pairs, only class-0 multiplier
coefficients and hence only class-0 rows: the moment of an omitted
monomial is 0.  Each sigma stays one solver block over its whole kept basis.
A program without flips is built exactly as before.

Generators are rescaled to unit l1 norm before assembly for conditioning;
extraction undoes the scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

import numpy as np

from .certificates import (
    CertificateError,
    ModuleCertificate,
    SosWeight,
    Statement,
    statement,
)
from .polynomial import Coeff, Monomial, Polynomial
from .sdp import SdpProblem, SdpSolution, Status
from .termarrays import exponent_rows, product_groups


def monomial_basis(num_vars: int, max_degree: int) -> list[Monomial]:
    """All monomials of total degree <= max_degree in graded-lex order.

    Length is C(num_vars + max_degree, num_vars).  Within a degree, the
    multisets of variables in lexicographic order are the monomials in
    graded-lex order: x1^2, x1*x2, x2^2, ...
    """
    if num_vars < 1:
        raise ValueError("num_vars must be >= 1")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    basis: list[Monomial] = []
    for d in range(max_degree + 1):
        for factors in combinations_with_replacement(range(num_vars), d):
            exponents = [0] * num_vars
            for i in factors:
                exponents[i] += 1
            basis.append(tuple(exponents))
    return basis


def basis_size(num_vars: int, max_degree: int) -> int:
    return math.comb(num_vars + max_degree, num_vars)


def _gf2_rref(vectors: Iterable[int]) -> list[int]:
    """Reduced row echelon basis of the span of GF(2) vectors given as bit
    masks; each basis vector's lowest bit is its pivot, set in no other."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            if v & b & -b:
                v ^= b
        if v:
            low = v & -v
            basis = [b ^ v if b & low else b for b in basis] + [v]
    return sorted(basis, key=lambda b: b & -b)


def sign_flips(polys: Iterable[Polynomial], num_vars: int) -> tuple[tuple[int, ...], ...]:
    """Basis of the sign flips x_i -> -x_i that leave every polynomial unchanged.

    A flip negating the variables in S fixes a term x^a iff sum_{i in S} a_i
    is even, so the flips are the GF(2) null space of the exponent parities.
    Each basis flip is the tuple of the (0-based) variables it negates; the
    basis is in reduced row echelon form, so it is unique.
    """
    parities = {sum((e & 1) << i for i, e in enumerate(mono)) for p in polys for mono in p.rows.tolist()}
    pivots = {r & -r: r for r in _gf2_rref(parities)}
    null = [(1 << i) | sum(low for low, r in pivots.items() if r >> i & 1)
            for i in range(num_vars) if (1 << i) not in pivots]
    return tuple(tuple(i for i in range(num_vars) if s >> i & 1) for s in _gf2_rref(null))


def parity_classes(monos: Iterable[Monomial], flips: Sequence[Sequence[int]]) -> list[int]:
    """Parity class of each monomial: bit j is the parity of its degree in
    the variables of flip j.  Class 0 is the flip-invariant monomials."""
    return [sum((sum(m[i] for i in s) & 1) << j for j, s in enumerate(flips)) for m in monos]


@dataclass
class SosBlock:
    """One SOS weight: its (scaled) generator, full Gram basis, the parity
    class of each basis monomial and the subset of basis elements retained
    after structural reduction."""

    tag: str  # "sigma0" | "ineq" | "cf"
    gen_index: int | None
    generator: Polynomial  # scaled by 1/scale
    scale: Coeff
    basis: list[Monomial]
    classes: list[int]
    kept: list[int]
    solver_block: int | None = None  # its block in the SdpProblem; None when nothing is kept

    @property
    def kept_basis(self) -> list[Monomial]:
        return [self.basis[i] for i in self.kept]


@dataclass
class EqBlock:
    index: int
    generator: Polynomial  # scaled by 1/scale
    scale: Coeff
    basis: list[Monomial]


@dataclass
class MembershipProgram:
    """Structural description of a membership program; kept alongside the
    numeric SdpProblem so that solutions can be mapped back to certificates
    of ``statement``, whose generators are unscaled; ``sign_flips`` is the
    basis of the sign flips that leave the program invariant (see
    ``sign_flips``)."""

    statement: Statement
    order: int
    blocks: list[SosBlock]
    eq_blocks: list[EqBlock]
    constraint_index: list[Monomial]
    lambda_index: int | None  # position of lambda in the free-variable vector
    sign_flips: tuple[tuple[int, ...], ...] = ()

    @property
    def family(self) -> str:
        return self.statement.family


def _scaled(p: Polynomial) -> tuple[Polynomial, Coeff]:
    s = p.l1_norm()
    if s == 0:
        return p, 1
    one = Fraction(1) if isinstance(s, Fraction) else 1.0
    return p.scale(one / s), s


def _reduce_bases(keep: list[np.ndarray], pairs, groups, positive, fixed: np.ndarray) -> None:
    """Drop Gram-basis monomials whose diagonal entries are forced to zero.

    A coefficient-matching row whose only contributions are PSD diagonal
    entries, all entering with the same strict sign and with no free-variable
    term, forces those diagonal entries (hence their rows and columns) to
    zero whenever the matched target coefficient is zero.  Removing them
    never changes the feasible set, and it turns several structurally
    infeasible programs into strongly infeasible SDPs that the solver can
    classify.  Runs to a fixpoint on masks over the rows (the groups of
    ``product_groups``).  Per block: ``keep`` masks its kept basis positions
    and is cleared where they drop; ``pairs`` are its pairs (a, b);
    ``groups`` holds the row of each term, a row per pair and a column per
    generator term; ``positive`` tells whether each generator coefficient
    is > 0.  ``fixed`` marks the rows of the free-variable and target terms.
    """
    while True:
        shared, pos, neg = fixed.copy(), np.zeros_like(fixed), np.zeros_like(fixed)
        for (a, b), g, up, k in zip(pairs, groups, positive, keep):
            live = k[a] & k[b]
            diag = g[live & (a == b)]
            shared[g[live & (a != b)]] = True
            pos[diag[:, up]] = True
            neg[diag[:, ~up]] = True
        forced = ~shared & (pos ^ neg)  # only diagonal entries, all of one sign
        drops = [(a == b) & k[a] & forced[g].any(axis=1) for (a, b), g, k in zip(pairs, groups, keep)]
        if not any(d.any() for d in drops):
            return
        for (a, _), d, k in zip(pairs, drops, keep):
            k[a[d]] = False


def build_membership_program(claim: Statement, k: int) -> SdpProblem:
    """Assemble the order-k SDP that searches for a certificate of ``claim``.

    lambda is a free variable when the claim's lambda sign is not 0; the SDP
    maximizes it for sign +1 and minimizes it for sign -1.  The returned
    SdpProblem carries the MembershipProgram as ``meta``.  Its rows
    (``meta.constraint_index``) are the class-0 monomials only when the
    program has sign flips (see the module docstring).
    Raises ValueError when k is below the minimal well-formed order.
    """
    target, gens = claim.target, claim.gens
    if target.num_vars != gens.num_vars:
        raise ValueError("target variable count does not match generators")
    kmin = claim.min_order()
    if k < kmin:
        raise ValueError(f"order {k} is below the minimal order {kmin}")
    n = gens.num_vars

    flips = sign_flips((target, *gens.ineq, *gens.eq), n)

    def sos_block(tag: str, j: int | None, generator: Polynomial, scale: Coeff, d: int) -> SosBlock:
        basis = monomial_basis(n, d)
        return SosBlock(tag, j, generator, scale, basis, parity_classes(basis, flips),
                        list(range(len(basis))))

    blocks = [sos_block("sigma0", None, Polynomial.constant(n, 1), 1, k)]
    for j, g in enumerate(gens.ineq):
        scaled, s = _scaled(g)
        blocks.append(sos_block("cf" if j == gens.cf_index else "ineq", j, scaled, s,
                                k - gens.half_degrees[j]))

    eq_blocks: list[EqBlock] = []
    for l, h in enumerate(gens.eq):
        scaled, s = _scaled(h)
        w = gens.eq_degrees[l]
        basis = monomial_basis(n, 2 * k - w)
        basis = [m for m, c in zip(basis, parity_classes(basis, flips)) if c == 0]
        eq_blocks.append(EqBlock(index=l, generator=scaled, scale=s, basis=basis))

    # the factors of every term of the identity: a block's pairs by its
    # generator, a multiplier's basis by its generator, the target and lambda
    nb, ne = len(blocks), len(eq_blocks)
    pairs, factors = [], []
    for blk in blocks:
        a, b = np.triu_indices(len(blk.basis))
        cls = np.asarray(blk.classes)
        same = cls[a] == cls[b]
        pairs.append((a[same], b[same]))
        basis = exponent_rows(blk.basis, n)
        factors.append((basis[a[same]] + basis[b[same]], blk.generator.rows))
    factors += [(exponent_rows(eb.basis, n), eb.generator.rows) for eb in eq_blocks]
    # an entry sums its one term from 0.0: -0.0 is 0.0
    coeffs = [p.generator.coeffs.floats() + 0.0 for p in (*blocks, *eq_blocks)]
    zero = np.zeros((1, n), dtype=np.int64)
    factors.append((target.rows, zero))
    has_lambda = claim.lambda_sign != 0
    if has_lambda:
        factors.append((zero, zero))
    groups, monos = product_groups(factors, n)
    groups = [g.reshape(len(x), len(y)) for g, (x, y) in zip(groups, factors)]

    fixed = np.zeros(len(monos), dtype=bool)  # the rows of the free-variable and target terms
    for g in groups[nb:]:
        fixed[g] = True
    keep = [np.ones(len(blk.basis), dtype=bool) for blk in blocks]
    _reduce_bases(keep, pairs, groups[:nb], [c > 0 for c in coeffs[:nb]], fixed)

    live = [kb[a] & kb[b] for (a, b), kb in zip(pairs, keep)]
    used = fixed.copy()
    for g, lv in zip(groups, live):
        used[g[lv]] = True
    used = np.flatnonzero(used)
    # ``grlex_key``'s order: total degree (lexsort's last key) first, then descending x1, x2, ...
    order = np.lexsort([*-monos[used, ::-1].T, monos[used].sum(axis=1)])
    constraint_index = [tuple(m) for m in monos[used[order]].tolist()]
    row = np.empty(len(monos), dtype=np.intp)
    row[used[order]] = np.arange(len(order))

    solver_block_dims: list[int] = []
    entries = []
    for blk, (a, b), g, co, kb, lv in zip(blocks, pairs, groups, coeffs, keep, live):
        blk.kept = np.flatnonzero(kb).tolist()
        if not blk.kept:
            continue
        blk.solver_block = len(solver_block_dims)
        solver_block_dims.append(len(blk.kept))
        pos = np.cumsum(kb) - 1  # the position of a kept monomial in the kept basis
        entries.append((row[g[lv]].reshape(-1), np.repeat(pos[a[lv]], len(co)),
                        np.repeat(pos[b[lv]], len(co)), np.tile(co, int(lv.sum()))))

    num_phi = sum(len(eb.basis) for eb in eq_blocks)
    num_free = num_phi + (1 if has_lambda else 0)
    lambda_index = num_phi if has_lambda else None
    B = np.zeros((len(constraint_index), num_free))
    col = 0
    for g, co in zip(groups[nb:nb + ne], coeffs[nb:]):
        B[row[g], np.arange(col, col + len(g))[:, None]] = co
        col += len(g)
    if has_lambda:
        B[row[groups[-1]], lambda_index] = float(claim.lambda_sign)
    b = np.zeros(len(constraint_index))
    b[row[groups[nb + ne].reshape(-1)]] = target.coeffs.floats()

    obj_free = np.zeros(num_free)
    if has_lambda:
        obj_free[lambda_index] = 1.0

    meta = MembershipProgram(
        statement=claim,
        order=k,
        blocks=blocks,
        eq_blocks=eq_blocks,
        constraint_index=constraint_index,
        lambda_index=lambda_index,
        sign_flips=flips,
    )
    return SdpProblem(
        block_dims=solver_block_dims,
        entries=entries,
        B=B,
        b=b,
        obj_free=obj_free,
        sense="max" if claim.lambda_sign > 0 else "min",
        meta=meta,
    )


def build_hierarchy_step(problem, k: int) -> SdpProblem:
    """Order-k lower-bound program: maximize lambda with f - lambda in M_k(g; h; c - f)."""
    return build_membership_program(statement("hierarchy", problem), k)


def build_archimedean_check(problem, k: int) -> SdpProblem:
    """Order-k boundedness program: minimize lambda with lambda - |x|^2 in M_k(g; h; c - f)."""
    return build_membership_program(statement("archimedean", problem), k)


def build_coercivity_check(f: Polynomial, k: int) -> SdpProblem:
    """Order-k coercivity program: maximize mu with f_d - mu = sigma + phi * (|x|^2 - 1).

    f must have even degree >= 2; the sphere polynomial enters as an equality
    generator with a free multiplier of degree <= 2k - 2.
    """
    return build_membership_program(statement("coercivity", f), k)


def extract_certificate(solution: SdpSolution, program: MembershipProgram) -> ModuleCertificate:
    """Map an optimal solver point back to generator-level weights.

    Gram entries pruned at build time are provably zero in every feasible
    point, so they are restored as explicit zeros; entries between monomials
    of different parity classes are set to exactly 0 (averaging over the
    program's sign flips, which keeps a PSD matrix PSD and the identity
    intact); generator scaling is undone.  The identity is not checked here:
    ``certificates.verify_certificate`` recomputes it.
    """
    if solution.status is not Status.OPTIMAL:
        raise CertificateError(f"cannot extract a certificate from status {solution.status.value}")
    claim = program.statement
    n = claim.gens.num_vars

    weights: list[SosWeight] = []
    for blk in program.blocks:
        size = len(blk.basis)
        gram = np.zeros((size, size))
        if blk.solver_block is not None:
            sub = solution.X[blk.solver_block]
            idx = np.asarray(blk.kept, dtype=int)
            gram[np.ix_(idx, idx)] = 0.5 * (sub + sub.T)
        cls = np.asarray(blk.classes)
        gram[cls[:, None] != cls[None, :]] = 0.0
        gram /= float(blk.scale)
        weights.append(SosWeight(tag=blk.tag, index=blk.gen_index, basis=list(blk.basis), gram=gram))

    multipliers: list[tuple[int, Polynomial]] = []
    offset = 0
    for eb in program.eq_blocks:
        coeffs = solution.free[offset : offset + len(eb.basis)]
        offset += len(eb.basis)
        terms = {mono: float(cv) / float(eb.scale) for mono, cv in zip(eb.basis, coeffs)}
        multipliers.append((eb.index, Polynomial(n, terms)))

    lam: Coeff = 0.0
    if program.lambda_index is not None:
        lam = float(solution.free[program.lambda_index])

    return ModuleCertificate(
        num_vars=n,
        order=program.order,
        lam=lam,
        lam_sign=claim.lambda_sign,
        sos_weights=weights,
        eq_multipliers=multipliers,
        family=claim.family,
    )
