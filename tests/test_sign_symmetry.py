"""Sign-symmetry reduction of the membership programs.

A sign flip x_i -> -x_i for i in S leaves a program invariant when it fixes
the target and every generator.  The builder then emits only same-class
Gram pairs, class-0 multiplier coefficients and class-0 rows.  Here the
flip bases of the paper's examples are checked, and seeded random
sign-symmetric instances are solved twice, reduced and with
``popnc.builder.sign_flips`` patched to find no flip: both must give the
same status and value and verifying certificates.
"""

import random

import numpy as np
import pytest

from gram_reference import expected, reconstruct
from popnc import builder
from popnc.builder import (
    build_archimedean_check,
    build_coercivity_check,
    build_hierarchy_step,
    monomial_basis,
    parity_classes,
    extract_certificate,
    sign_flips,
)
from popnc.certificates import statement, verify_certificate
from popnc.polynomial import Polynomial
from popnc.problem_io import PopProblem, parse_problem
from popnc.sdp import Status, solve

# the dense n = 6 quartic of the benchmark, with its variables relabelled
DENSE_N6 = """vars: x1 x2 x3 x4 x5 x6
obj: 0.53*x1^4 - 0.74*x1^2*x2^2 - 2.66*x1^2*x4^2 - 0.08*x1^2*x5^2 - 0.67*x1^2*x6^2 \
- 0.47*x1*x4*x5^2 - 0.97*x1*x5^2*x6 + 1.36*x2^4 + 0.89*x2^2*x4^2 - 0.51*x2^2*x6^2 \
- 0.76*x2*x4^2*x5 + 0.95*x3^4 + 0.33*x3*x4^2*x6 + 1.13*x4^4 + 0.42*x4^2*x5^2 + 0.6*x5^4 \
+ 1.39*x6^4 - 0.69*x1*x2*x4 + 0.04*x2*x3*x6 + 0.51*x2*x4*x5 - 0.81*x2*x4*x6 \
+ 1.25*x3*x4*x6 + 0.16*x1^2 - 0.67*x2^2 - 0.2*x3^2 - 0.62*x4^2 - 0.35*x5^2 + 0.87*x6^2 \
- 0.61*x1 + 0.47*x2 + 0.33*x3 - 0.73*x4 - x5 - 0.65*x6
ineq: 4 - x1^2 - x2^2 - x3^2 - x4^2 - x5^2 - x6^2
x0: 0 0 0 0 0 0
"""


def _flips(claim):
    return sign_flips((claim.target, *claim.gens.ineq, *claim.gens.eq), claim.gens.num_vars)


class TestFlipBasis:
    def test_example31_hierarchy_has_both_single_flips(self, example31):
        assert _flips(statement("hierarchy", example31)) == ((0,), (1,))

    def test_sextic_coercivity_has_the_joint_flip(self, sextic):
        assert _flips(statement("coercivity", sextic)) == ((0, 1),)

    def test_dense_n6_coercivity_has_a_group_of_order_4(self):
        problem = parse_problem(DENSE_N6)
        assert sign_flips((problem.objective,), 6) == ()
        flips = _flips(statement("coercivity", problem))
        assert flips == ((0, 2, 3, 5), (1, 4))
        top = problem.objective.top_component()
        for flip in flips:
            signs = [-1.0 if i in flip else 1.0 for i in range(6)]
            point = np.linspace(0.3, 1.1, 6)
            assert top.evaluate(point * signs) == pytest.approx(top.evaluate(point), abs=1e-12)

    def test_sextic_hierarchy_has_none(self, sextic_problem):
        assert _flips(statement("hierarchy", sextic_problem)) == ()

    def test_basis_is_reduced(self):
        # x1 x2 x3 and x1^2 x2 x3^3: S is a flip iff |S & {x1, x2, x3}| and
        # |S & {x2, x3}| are even, i.e. S avoids x1 and holds both or none
        # of x2, x3; x4 is free
        p = Polynomial(4, {(1, 1, 1, 0): 1.0, (2, 1, 3, 0): 2.0})
        assert sign_flips((p,), 4) == ((1, 2), (3,))
        assert parity_classes([(0, 1, 0, 0), (0, 1, 1, 1), (0, 0, 0, 2)], ((1, 2), (3,))) == [1, 2, 0]


def _instance(rng: random.Random, n: int, with_eq: bool) -> PopProblem:
    """A quartic over the ball |x|^2 <= 4 (and h = 0) that one or two random
    sign flips leave unchanged; the origin is feasible."""
    chosen = [rng.randrange(1, 2 ** n) for _ in range(rng.randint(1, 2))]

    def invariant(m):
        parity = sum((e & 1) << i for i, e in enumerate(m))
        return all(bin(parity & s).count("1") % 2 == 0 for s in chosen)

    monos = [m for m in monomial_basis(n, 4) if invariant(m) and sum(m) > 0]
    terms = {m: round(rng.uniform(-1.0, 1.0), 2) for m in rng.sample(monos, min(8, len(monos)))}
    for i in range(n):
        terms[tuple(4 if j == i else 0 for j in range(n))] = round(rng.uniform(0.5, 1.5), 2)
    x = [Polynomial.variable(n, i) for i in range(n)]
    ball = Polynomial.constant(n, 4.0)
    for xi in x:
        ball = ball - xi * xi
    eq = []
    if with_eq:
        quadratic = [m for m in monos if sum(m) <= 2]
        eq = [x[0] * x[0] - x[1] * x[1] + Polynomial(n, {rng.choice(quadratic): 0.5})]
    return PopProblem(variables=[f"x{i + 1}" for i in range(n)], objective=Polynomial(n, terms),
                      inequalities=[ball], equalities=eq, x0=[0.0] * n)


CASES = [(n, with_eq) for n in (2, 3, 4) for with_eq in (False, True)]


def _no_flips(polys, num_vars):
    return ()


def _solved(build, k):
    prob = build(k)
    sol = solve(prob)
    cert = None
    if sol.status is Status.OPTIMAL:
        cert = extract_certificate(sol, prob.meta)
        assert verify_certificate(cert, prob.meta.statement).passed
    return prob, sol, cert


@pytest.mark.parametrize("n,with_eq", CASES, ids=[f"n{n}{'-eq' if e else ''}" for n, e in CASES])
def test_reduced_programs_match_unreduced(n, with_eq, monkeypatch):
    problem = _instance(random.Random(f"flips-{n}-{with_eq}-0"), n, with_eq)
    families = {
        "hierarchy": lambda k: build_hierarchy_step(problem, k),
        "archimedean": lambda k: build_archimedean_check(problem, k),
        "coercivity": lambda k: build_coercivity_check(problem.objective, k),
    }
    for family, build in families.items():
        for k in range(statement(family, problem).min_order(), 4):
            prob, sol, cert = _solved(build, k)
            flips = prob.meta.sign_flips
            assert flips, (family, k)
            with monkeypatch.context() as patch:
                patch.setattr(builder, "sign_flips", _no_flips)
                full, full_sol, _ = _solved(build, k)
            assert full.meta.sign_flips == ()
            assert len(prob.b) < len(full.b)
            assert sol.status is full_sol.status, (family, k)
            if cert is None:
                continue
            assert abs(sol.obj_primal - full_sol.obj_primal) <= 1e-7 * (1 + abs(full_sol.obj_primal))
            for w in cert.sos_weights:
                cls = np.asarray(parity_classes(w.basis, flips))
                assert np.all(w.gram[cls[:, None] != cls[None, :]] == 0.0), (family, k, w.tag)
            claim = prob.meta.statement
            mismatch = reconstruct(cert, claim.gens) - expected(claim, cert.lam)
            assert set(parity_classes(mismatch.terms, flips)) <= {0}, (family, k)
            for _, phi in cert.eq_multipliers:
                assert set(parity_classes(phi.terms, flips)) <= {0}
