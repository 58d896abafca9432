"""The membership-program assembly the builder replaced, kept as the reference
for a differential test: one Python tuple per (Gram pair, generator term),
dicts keyed by monomial tuples, the zero-diagonal fixpoint over those dicts
and the rows sorted by ``grlex_key``.  Its polynomials are the dict
arithmetic of ``polynomial_reference``, so it shares no code with
``popnc.polynomial`` or ``popnc.termarrays``; the bases, parity classes and
sign flips are the builder's own.

``reference_program(claim, k)`` returns what ``build_membership_program``
returns, as plain data: the block dims, the kept basis positions and the
solver block of each SOS block, the rows, each block's entries keyed by
(row, r, c), and B, b and the objective over the free variables.
``assert_same_program`` compares the two bit for bit, and
``assert_every_family`` does so for each family's programs of a problem.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from polynomial_reference import DictPolynomial, Monomial, dict_polynomial, grlex_key, monomial_mul
from popnc.builder import build_membership_program, monomial_basis, parity_classes, sign_flips
from popnc.certificates import statement


def same_class_pairs(classes: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Position pairs (a, b), a <= b, of one parity class."""
    groups: dict[int, list[int]] = {}
    for pos, c in enumerate(classes):
        groups.setdefault(c, []).append(pos)
    for group in groups.values():
        for i, a in enumerate(group):
            for b in group[i:]:
                yield a, b


def scaled(p: DictPolynomial) -> DictPolynomial:
    """p over its l1 norm, as the builder scales a generator."""
    s = p.l1_norm()
    if s == 0:
        return p
    return p.scale((Fraction(1) if isinstance(s, Fraction) else 1.0) / s)


def products(basis, classes, generator: DictPolynomial) -> list[tuple[int, int, Monomial, float]]:
    """(a, b, monomial, coefficient) of every term of basis[a] * basis[b] *
    generator, over the same-class pairs a <= b."""
    gen_terms = generator.sorted_terms()
    table = []
    for a, b in same_class_pairs(classes):
        mono_ab = monomial_mul(basis[a], basis[b])
        table += [(a, b, monomial_mul(mono_ab, delta), float(co)) for delta, co in gen_terms]
    return table


def reduce_bases(kept: list[list[int]], tables, free_reach: set, target: DictPolynomial) -> None:
    """Drop, to a fixpoint, the basis positions whose diagonal entries are
    alone, with one strict sign, in a row with no off-diagonal entry, no
    free-variable term and a zero target coefficient."""
    while True:
        diag: dict[Monomial, list[tuple[int, int, float]]] = {}
        offdiag: set[Monomial] = set()
        for bi, table in enumerate(tables):
            live = set(kept[bi])
            for a, b, mono, co in table:
                if a in live and b in live:
                    if a == b:
                        diag.setdefault(mono, []).append((bi, a, co))
                    else:
                        offdiag.add(mono)
        to_drop: set[tuple[int, int]] = set()
        for mono, entries in diag.items():
            if mono in offdiag or mono in free_reach or target.coefficient(mono) != 0:
                continue
            if len({co > 0 for _, _, co in entries}) == 1:
                to_drop.update((bi, a) for bi, a, _ in entries)
        if not to_drop:
            return
        for bi in range(len(kept)):
            kept[bi] = [i for i in kept[bi] if (bi, i) not in to_drop]


def reference_program(claim, k: int) -> dict:
    n = claim.gens.num_vars
    flips = sign_flips((claim.target, *claim.gens.ineq, *claim.gens.eq), n)
    target = dict_polynomial(claim.target)
    ineq, eq = map(dict_polynomial, claim.gens.ineq), map(dict_polynomial, claim.gens.eq)
    blocks = [(monomial_basis(n, k), DictPolynomial.constant(n, 1))]
    for g in ineq:
        blocks.append((monomial_basis(n, k - (g.degree() + 1) // 2), scaled(g)))
    classes = [parity_classes(basis, flips) for basis, _ in blocks]
    tables = [products(basis, cls, gen) for (basis, gen), cls in zip(blocks, classes)]

    free_terms: list[tuple[Monomial, int, float]] = []
    num_phi = 0
    for h in eq:
        basis = monomial_basis(n, 2 * k - h.degree())
        basis = [m for m, c in zip(basis, parity_classes(basis, flips)) if c == 0]
        gen_terms = scaled(h).sorted_terms()
        for beta in basis:
            free_terms += [(monomial_mul(beta, delta), num_phi, float(co)) for delta, co in gen_terms]
            num_phi += 1
    has_lambda = claim.lambda_sign != 0
    num_free = num_phi + has_lambda
    if has_lambda:
        free_terms.append((tuple([0] * n), num_phi, float(claim.lambda_sign)))

    kept = [list(range(len(basis))) for basis, _ in blocks]
    reduce_bases(kept, tables, {mono for mono, _, _ in free_terms}, target)

    dims, solver_block, block_terms = [], [], []
    for table, kept_b in zip(tables, kept):
        if not kept_b:
            solver_block.append(None)
            continue
        solver_block.append(len(dims))
        dims.append(len(kept_b))
        pos = {i: j for j, i in enumerate(kept_b)}
        terms: dict[tuple[Monomial, int, int], float] = {}
        for a, b, mono, cf in table:
            if a in pos and b in pos:
                key = (mono, pos[a], pos[b])
                terms[key] = terms.get(key, 0.0) + cf
        block_terms.append(terms)

    rows = sorted({mono for terms in block_terms for mono, _, _ in terms}
                  | {mono for mono, _, _ in free_terms} | set(target.terms), key=grlex_key)
    row_of = {mono: i for i, mono in enumerate(rows)}
    entries = [{(row_of[mono], r, c): v for (mono, r, c), v in terms.items()} for terms in block_terms]
    B = np.zeros((len(rows), num_free))
    for mono, col, co in free_terms:
        B[row_of[mono], col] += co
    obj_free = np.zeros(num_free)
    if has_lambda:
        obj_free[num_phi] = 1.0
    return {
        "block_dims": dims,
        "kept": kept,
        "solver_block": solver_block,
        "constraint_index": rows,
        "entries": entries,
        "B": B,
        "b": np.array([float(target.coefficient(mono)) for mono in rows]),
        "obj_free": obj_free,
        "sense": "max" if claim.lambda_sign > 0 else "min",
        "sign_flips": flips,
    }


FAMILIES = ("hierarchy", "archimedean", "coercivity")


def same_array(got, want) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def assert_same_program(claim, k):
    """The order-k program of ``claim``, after asserting that it is the
    reference's bit for bit."""
    sdp = build_membership_program(claim, k)
    want = reference_program(claim, k)
    meta = sdp.meta
    assert sdp.block_dims == want["block_dims"]
    assert [blk.kept for blk in meta.blocks] == want["kept"]
    assert [blk.solver_block for blk in meta.blocks] == want["solver_block"]
    assert meta.constraint_index == want["constraint_index"]
    assert meta.sign_flips == want["sign_flips"]
    assert sdp.sense == want["sense"]
    for name in ("B", "b", "obj_free"):
        assert same_array(getattr(sdp, name), want[name]), name
    assert len(sdp.entries) == len(want["entries"])
    for (row, r, c, val), terms in zip(sdp.entries, want["entries"]):
        order = np.lexsort((c, r, row))
        keys = sorted(terms)
        assert list(zip(row[order].tolist(), r[order].tolist(), c[order].tolist())) == keys
        assert same_array(val[order], np.array([terms[key] for key in keys], dtype=float))
    return sdp


def assert_every_family(subject, extra=2):
    """Each family's program of ``subject`` at k_min..k_min+extra, in a list;
    the coercivity family only for an objective of even degree >= 2."""
    built = []
    for family in FAMILIES:
        try:
            claim = statement(family, subject)
        except ValueError:
            continue
        kmin = claim.min_order()
        for k in range(kmin, kmin + extra + 1):
            built.append(assert_same_program(claim, k))
    return built
