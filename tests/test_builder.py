import math
import random

import pytest

from popnc.builder import (
    basis_size,
    build_archimedean_check,
    build_coercivity_check,
    build_hierarchy_step,
    build_membership_program,
    extract_certificate,
    monomial_basis,
    parity_classes,
)
from popnc.certificates import GeneratorSet, Statement, hierarchy_generators, verify_certificate
from popnc.polynomial import Polynomial, sum_of_squared_variables
from popnc.problem_io import parse_polynomial, parse_problem
from popnc.sdp import Status, solve

V2 = ["x1", "x2"]


class TestMonomialBasis:
    def test_n2_d2(self):
        assert monomial_basis(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_n3_d2_length(self):
        assert len(monomial_basis(3, 2)) == 10

    def test_n1_d0(self):
        assert monomial_basis(1, 0) == [(0,)]

    def test_binomial_count(self):
        for n in range(1, 5):
            for d in range(0, 5):
                assert len(monomial_basis(n, d)) == math.comb(n + d, n) == basis_size(n, d)


class TestMinOrder:
    def test_example31_hierarchy(self, example31):
        gens = hierarchy_generators(example31)
        assert Statement("hierarchy", example31.objective, gens, 1).min_order() == 1

    def test_coercivity_sextic(self, sextic):
        theta = sum_of_squared_variables(2) - Polynomial.constant(2, 1)
        gens = GeneratorSet(num_vars=2, eq=(theta,))
        assert Statement("coercivity", sextic.top_component(), gens, 1).min_order() == 3

    def test_linear_unconstrained(self):
        gens = GeneratorSet(num_vars=2)
        assert Statement("membership", parse_polynomial("x1", V2), gens, 0).min_order() == 1


class TestGeneratorSet:
    def test_degrees_recomputed(self):
        g = parse_polynomial("1 - x1^2 - x2^2", V2)
        h = parse_polynomial("x1^3 - x2", V2)
        gens = GeneratorSet(num_vars=2, ineq=(g,), eq=(h,))
        assert gens.half_degrees == [1]
        assert gens.eq_degrees == [3]

    def test_hierarchy_appends_bound_generator_last(self, example31):
        gens = hierarchy_generators(example31)
        assert gens.cf_index == 2
        assert gens.ineq[2] == Polynomial.constant(2, 2.0) - example31.objective


# EX31 with odd terms x1 and x2 in f, which leave it no sign flip
EX31_ASYMMETRIC = "vars: x1 x2\nobj: x1^2 + x1 + x2 + 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nc: 2\n"


class TestMembershipStructure:
    def test_example31_k2_block_structure(self, example31):
        prob = build_hierarchy_step(example31, 2)
        meta = prob.meta
        # full Gram bases: sigma_0 over degree <= 2, the rest over degree <= 1
        assert [len(b.basis) for b in meta.blocks] == [6, 3, 3, 3]
        assert prob.block_dims == [6, 3, 3, 3]
        # both single flips: one row per monomial of degree <= 4 with even
        # exponents, 1, x1^2, x2^2, x1^4, x1^2 x2^2, x2^4
        assert meta.sign_flips == ((0,), (1,))
        assert len(prob.b) == 6
        assert len(meta.constraint_index) == 6
        assert meta.eq_blocks == []
        assert prob.num_free == 1  # the decision scalar only
        assert prob.sense == "max"

    def test_example31_k2_without_sign_flips(self):
        prob = build_hierarchy_step(parse_problem(EX31_ASYMMETRIC), 2)
        assert prob.meta.sign_flips == ()
        assert prob.block_dims == [6, 3, 3, 3]
        assert len(prob.b) == 15  # every monomial of degree <= 4
        assert prob.num_free == 1

    def test_trivial_sos_program(self):
        x2 = parse_polynomial("x^2", ["x"])
        prob = build_membership_program(Statement("membership", x2, GeneratorSet(num_vars=1), 0), 1)
        meta = prob.meta
        assert [len(b.basis) for b in meta.blocks] == [2]
        assert meta.blocks[0].basis == [(0,), (1,)]
        sol = solve(prob)
        assert sol.status is Status.OPTIMAL
        cert = extract_certificate(sol, meta)
        gram = cert.sos_weights[0].gram
        assert gram.shape == (2, 2)
        assert abs(gram[1, 1] - 1.0) < 1e-7
        assert abs(gram[0, 0]) < 1e-9  # forced zero: x^2 has no constant producer

    def test_equality_multiplier_dimension(self):
        h = parse_polynomial("x1", V2)
        gens = GeneratorSet(num_vars=2, eq=(h,))
        target = parse_polynomial("x1^2 + x1", V2)
        prob = build_membership_program(Statement("membership", target, gens, 0), 1)
        # free multiplier of degree <= 2k - w = 1 in two variables, without x2:
        # x2 -> -x2 leaves x1^2 + x1 and x1 unchanged, so phi keeps 1 and x1
        assert prob.meta.sign_flips == ((1,),)
        assert [eb.basis for eb in prob.meta.eq_blocks] == [[(0, 0), (1, 0)]]
        assert prob.num_free == 2

    def test_equality_multiplier_dimension_without_sign_flips(self):
        gens = GeneratorSet(num_vars=2, eq=(parse_polynomial("x1", V2),))
        target = parse_polynomial("x1^2 + x1 + x2", V2)
        prob = build_membership_program(Statement("membership", target, gens, 0), 1)
        assert prob.meta.sign_flips == ()
        assert [len(eb.basis) for eb in prob.meta.eq_blocks] == [3]
        assert prob.num_free == 3

    def test_order_below_minimum_rejected(self, sextic):
        with pytest.raises(ValueError):
            build_coercivity_check(sextic, 2)

    def test_builder_total_on_infeasible_instances(self):
        # K = R, f = x, c = 0: every order builds, the solver classifies
        from popnc.problem_io import parse_problem

        p = parse_problem("vars: x\nobj: x\nc: 0\n")
        for k in range(1, 5):
            prob = build_archimedean_check(p, k)
            sol = solve(prob)
            assert sol.status is Status.PRIMAL_INFEASIBLE

    def test_constraint_index_covers_target_and_products(self, example31):
        prob = build_hierarchy_step(example31, 2)
        meta = prob.meta
        index = set(meta.constraint_index)
        for mono in meta.statement.target.terms:
            assert mono in index
        for blk in meta.blocks:
            kb = blk.kept_basis
            classes = parity_classes(kb, meta.sign_flips)
            for a, ca in zip(kb, classes):
                for b, cb in zip(kb, classes):
                    if ca != cb:
                        continue
                    for delta in blk.generator.terms:
                        mono = tuple(x + y + z for x, y, z in zip(a, b, delta))
                        assert mono in index
        assert set(parity_classes(index, meta.sign_flips)) == {0}


class TestCoercivityProgram:
    def test_sextic_k3_sizes(self, sextic):
        prob = build_coercivity_check(sextic, 3)
        meta = prob.meta
        assert prob.block_dims == [10]  # Gram basis of degree <= 3
        # the joint flip fixes the sextic top form and the sphere: phi and the
        # rows keep the monomials of even degree, 1 + 3 + 5 of degree <= 4
        # and 1 + 3 + 5 + 7 of degree <= 6
        assert meta.sign_flips == ((0, 1),)
        assert [len(eb.basis) for eb in meta.eq_blocks] == [9]
        assert prob.num_free == 10  # phi coefficients plus the decision scalar
        assert len(prob.b) == 16

    def test_sextic_k3_sizes_without_sign_flips(self, sextic):
        # the coercivity program of the top form plus an odd term x1^5
        sym = build_coercivity_check(sextic, 3).meta
        target = sym.statement.target + parse_polynomial("x1^5", V2)
        prob = build_membership_program(Statement("coercivity", target, sym.statement.gens, 1), 3)
        assert prob.meta.sign_flips == ()
        assert prob.block_dims == [10]
        assert [len(eb.basis) for eb in prob.meta.eq_blocks] == [15]  # phi of degree <= 4
        assert prob.num_free == 16
        assert len(prob.b) == 28

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            build_coercivity_check(parse_polynomial("x1^3 + x2", V2), 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            build_coercivity_check(Polynomial.zero(2), 1)

    def test_target_is_top_component(self, sextic):
        prob = build_coercivity_check(sextic, 3)
        assert prob.meta.statement.target == sextic.top_component()


def random_generator_set(rng, n):
    gens = []
    for _ in range(rng.randint(0, 3)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = tuple(rng.randint(0, 2) for _ in range(n))
            terms[mono] = rng.uniform(-3, 3)
        p = Polynomial(n, terms)
        if not p.is_zero():
            gens.append(p)
    return GeneratorSet(num_vars=n, ineq=tuple(gens))


class TestBlockSizeFormula:
    def test_random_generator_sets(self):
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randint(1, 3)
            gens = random_generator_set(rng, n)
            target = Polynomial.constant(n, 1.0)
            claim = Statement("membership", target, gens, 0)
            k = claim.min_order() + rng.randint(0, 1)
            prob = build_membership_program(claim, k)
            meta = prob.meta
            vs = [0] + gens.half_degrees
            for blk, v in zip(meta.blocks, vs):
                assert len(blk.basis) == basis_size(n, k - v)


class TestIdentitySoundness:
    def test_float_feasible_points_reproduce_target(self, example31):
        for k in (1, 2):
            prob = build_hierarchy_step(example31, k)
            sol = solve(prob)
            assert sol.status is Status.OPTIMAL
            cert = extract_certificate(sol, prob.meta)
            tol = 1e-6 * (1 + float(prob.meta.statement.target.l1_norm()))
            assert float(verify_certificate(cert, prob.meta.statement).residual) <= tol

    def test_exact_rational_scaling(self, example31_rational):
        # generator scaling is exact in rational mode
        gens = hierarchy_generators(example31_rational)
        prob = build_membership_program(Statement("membership", example31_rational.objective, gens, 0), 2)
        for blk, orig in zip(prob.meta.blocks[1:], gens.ineq):
            assert blk.scale == orig.l1_norm()
            assert blk.generator.scale(blk.scale) == orig
        rebuilt = prob.meta.statement.gens
        assert rebuilt.ineq == gens.ineq
