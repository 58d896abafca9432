import io
import math
import tracemalloc

import numpy as np
import pytest

from sdp_cases import build_cases, check_certificate, dense_problem, random_instance, recompute_residuals

from popnc import builder, sdp
from popnc.builder import (
    build_coercivity_check,
    build_hierarchy_step,
    build_membership_program,
)
from popnc.certificates import Statement
from popnc.problem_io import parse_polynomial, parse_problem
from popnc.sdp import (
    LinearConstraint,
    SdpProblem,
    SdpStructureError,
    Status,
    dump_sdp,
    solve,
)


class TestStatusSuite:
    @pytest.mark.parametrize("name,prob,status,value", build_cases(), ids=lambda v: v if isinstance(v, str) else "")
    def test_classification(self, name, prob, status, value):
        sol = solve(prob)
        assert sol.status is status, f"{name}: got {sol.status} ({sol.message})"
        if value is not None:
            assert abs(sol.obj_primal - value) <= 1e-6 * (1 + abs(value))

    def test_zero_misclassifications(self):
        wrong = []
        for name, prob, status, _ in build_cases():
            sol = solve(prob)
            if sol.status is not status:
                wrong.append((name, sol.status))
        assert wrong == []


class TestSolutionQuality:
    def test_certificate_check_on_optimal(self):
        for name, prob, status, _ in build_cases():
            if status is not Status.OPTIMAL:
                continue
            sol = solve(prob)
            pres, dres, gap = recompute_residuals(prob, sol)
            assert pres <= 5 * sdp.FEAS_TOL, name
            assert dres <= 5 * sdp.FEAS_TOL, name
            assert gap <= 5 * sdp.GAP_TOL, name

    def test_psd_blocks_at_optimum(self):
        for name, prob, status, _ in build_cases():
            if status is not Status.OPTIMAL:
                continue
            sol = solve(prob)
            for Xb in sol.X:
                assert float(np.linalg.eigvalsh(Xb).min()) >= -1e-9, name

    def test_determinism(self):
        for name, prob, _, _ in build_cases():
            a = solve(prob)
            b = solve(prob)
            assert a.status is b.status, name
            if a.status is Status.OPTIMAL:
                assert abs(a.obj_primal - b.obj_primal) <= 1e-12
                assert abs(a.obj_dual - b.obj_dual) <= 1e-12

    def test_weak_duality_along_iterates(self, example31):
        # the trace records the internal minimization form: primal >= dual
        # up to residual-driven slack at every iterate
        prob = build_hierarchy_step(example31, 2)
        sol = solve(prob)
        assert sol.status is Status.OPTIMAL
        for row in sol.trace:
            pobj, dobj = row["pobj"], row["dobj"]
            slack = (
                10 * sdp.GAP_TOL * (1 + abs(pobj) + abs(dobj))
                + row["dres"] * row["cnorm"] * row["xnorm"]
                + row["pres"] * row["bnorm"] * row["ynorm"]
            )
            assert pobj - dobj >= -slack


def _one_row(mat, free=np.zeros(0), **kw):
    """A 2 x 2 block and one constraint row with coefficients mat."""
    return dense_problem(block_dims=[2], num_free=len(free),
                         constraints=[LinearConstraint({0: mat}, free, 1.0)], **kw)


def _entries(row=(0,), r=(0,), c=(1,), val=(1.0,), dims=(2,), rhs=(1.0,), B=None, blocks=None):
    """One 2 x 2 block whose entries are the given arrays, over len(rhs) rows."""
    ent = (np.array(row), np.array(r), np.array(c), np.array(val, dtype=float))
    return SdpProblem(block_dims=list(dims), entries=[ent] * (blocks or len(dims)),
                      B=np.zeros((len(rhs), 0)) if B is None else B, b=np.array(rhs))


ASYM = np.array([[0.0, 1.0], [0.0, 0.0]])


class TestStructuralErrors:
    CASES = {
        "bad sense": (_one_row(np.eye(2), sense="maximize"), "sense must be 'min' or 'max'"),
        "block dim 0": (_entries(dims=(2, 0)), "block dimensions must be >= 1"),
        "objective free length": (_one_row(np.eye(2), np.zeros(1), obj_free=np.zeros(2)),
                                  "objective free-vector length mismatch"),
        "objective block index": (_one_row(np.eye(2), obj_blocks={-1: np.eye(2)}),
                                  "objective: block index -1 out of range"),
        "objective shape": (_one_row(np.eye(2), obj_blocks={0: np.eye(3)}),
                            r"objective: block 0 has shape \(3, 3\), expected \(2, 2\)"),
        "objective asymmetry": (_one_row(np.eye(2), obj_blocks={0: ASYM}),
                                "objective: block 0 coefficient matrix is not symmetric"),
        # one row per refusal of the stored constraint entries
        "unequal lengths": (_entries(row=(0, 0)), "block 0: its row, r, c and value arrays differ"),
        "negative row": (_entries(row=(-1,)), r"block 0: a row index lies outside \[0, 1\)"),
        "row beyond the rows": (_entries(row=(1,)), r"block 0: a row index lies outside \[0, 1\)"),
        "entry below the diagonal": (_entries(r=(1,), c=(0,)),
                                     "block 0: an entry .* has not 0 <= r <= c < 2"),
        "negative r": (_entries(r=(-1,)), "block 0: an entry .* has not 0 <= r <= c < 2"),
        "constraint shape": (_entries(c=(2,)), "block 0: an entry .* has not 0 <= r <= c < 2"),
        "nan entry": (_entries(val=(np.nan,)), "block 0: a value is not finite"),
        "inf entry": (_entries(val=(np.inf,)), "block 0: a value is not finite"),
        "entry listed twice": (_entries(row=(0, 0), r=(0, 0), c=(1, 1), val=(1.0, 2.0)),
                               r"block 0: an entry \(row, r, c\) is listed twice"),
        "constraint free length": (_entries(B=np.zeros((2, 1))),
                                   r"B has shape \(2, 1\), expected \(1, q\) for 1 right-hand sides"),
        "free matrix not 2-D": (_entries(B=np.zeros(1)), r"B has shape \(1,\), expected \(1, q\)"),
        "constraint block index": (_entries(blocks=2), "2 entry lists for 1 blocks"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_rejected(self, case):
        prob, message = self.CASES[case]
        with pytest.raises(SdpStructureError, match=message):
            solve(prob)

    def test_exact_zeros_are_dropped(self):
        # a zero entry is no coefficient: the row reads 0 = 1
        blk = sdp._to_internal(_entries(val=(0.0,))).A[0]
        assert blk.val.size == 0
        assert solve(_entries(val=(0.0,))).status is Status.PRIMAL_INFEASIBLE

    # |M - M'| <= 1e-12 (1 + max|M|) + 1e-5 |M'| entrywise is symmetric
    @pytest.mark.parametrize("mat, symmetric", [
        (np.array([[1.0, 1e6], [1e6 * (1 + 0.9e-5), 1.0]]), True),
        (np.array([[1.0, 1e6], [1e6 * (1 + 1.1e-5), 1.0]]), False),
        (np.array([[0.0, 0.0], [1.8e-12, 1.0]]), True),
        (np.array([[0.0, 0.0], [2.2e-12, 1.0]]), False),
    ])
    def test_symmetry_tolerance(self, mat, symmetric):
        # of the objective, the one input still given as a dense matrix
        prob = _one_row(np.eye(2), obj_blocks={0: mat})
        if symmetric:
            assert solve(prob).status is Status.OPTIMAL
        else:
            with pytest.raises(SdpStructureError):
                solve(prob)


class TestIterationLimit:
    def test_max_iter_returns_unknown_not_exception(self, monkeypatch):
        name, prob, _, _ = build_cases()[0]
        monkeypatch.setattr(sdp, "MAX_ITER", 1)
        sol = solve(prob)
        assert sol.status is Status.UNKNOWN
        assert "limit" in sol.message or sol.message


class TestDegenerate:
    def test_empty_program_is_optimal_zero(self):
        prob = dense_problem(block_dims=[2], num_free=0, constraints=[])
        sol = solve(prob)
        assert sol.status is Status.OPTIMAL
        assert sol.obj_primal == 0.0

    def test_consistent_zero_row_keeps_dual_indexing(self):
        # a 0 = 0 row is dropped internally; y must still align with the rows
        prob = dense_problem(
            block_dims=[1], num_free=0,
            constraints=[
                LinearConstraint({}, np.zeros(0), 0.0),
                LinearConstraint({0: np.array([[1.0]])}, np.zeros(0), 2.0),
            ],
            obj_blocks={0: np.array([[1.0]])},
        )
        sol = solve(prob)
        assert sol.status is Status.OPTIMAL
        assert sol.obj_primal == pytest.approx(2.0, abs=1e-7)
        assert len(sol.y) == 2
        pres, dres, gap = recompute_residuals(prob, sol)
        assert max(pres, dres, gap) <= 5 * sdp.FEAS_TOL

    def test_free_only_problem(self):
        # no PSD blocks at all: u = 3 pinned by one equation, minimize u
        prob = dense_problem(
            block_dims=[], num_free=1,
            constraints=[LinearConstraint({}, np.array([1.0]), 3.0)],
            obj_free=np.array([1.0]),
        )
        sol = solve(prob)
        assert sol.status is Status.OPTIMAL
        assert sol.obj_primal == pytest.approx(3.0, abs=1e-9)
        assert sol.free[0] == pytest.approx(3.0, abs=1e-9)

    def test_no_blocks_no_constraints(self):
        prob = dense_problem(block_dims=[], num_free=0, constraints=[], obj_offset=3.5)
        sol = solve(prob)
        assert sol.status is Status.OPTIMAL
        assert sol.obj_primal == 3.5


class TestBuiltSizes:
    def test_example31_k2(self, example31):
        prob = build_hierarchy_step(example31, 2)
        assert prob.block_dims == [6, 3, 3, 3]
        # EX31 is even in x1 and in x2: the rows are the 6 monomials of
        # degree <= 4 with even exponents
        assert len(prob.b) == 6

    def test_example31_k2_with_odd_terms(self):
        prob = build_hierarchy_step(parse_problem(
            "vars: x1 x2\nobj: x1^2 + x1 + x2 + 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nc: 2\n"), 2)
        assert prob.block_dims == [6, 3, 3, 3]
        assert len(prob.b) == 15

    def test_coercivity_k3(self, sextic):
        prob = build_coercivity_check(sextic, 3)
        assert prob.block_dims == [10]
        # the joint flip keeps the even-degree monomials: 9 multiplier
        # coefficients of degree <= 4 and the decision scalar; 16 rows of degree <= 6
        assert prob.num_free == 10
        assert prob.meta.lambda_index is not None
        assert len(prob.b) == 16

    def test_coercivity_k3_with_odd_term(self, sextic):
        sym = build_coercivity_check(sextic, 3).meta
        odd = sym.statement.target + parse_polynomial("x1^5", ["x1", "x2"])
        prob = build_membership_program(Statement("coercivity", odd, sym.statement.gens, 1), 3)
        assert prob.block_dims == [10]
        assert prob.num_free == 16  # 15 multiplier coefficients and the decision scalar
        assert prob.meta.lambda_index is not None
        assert len(prob.b) == 28


class TestDump:
    def test_dump_round_trip_text(self, example31):
        prob = build_hierarchy_step(example31, 1)
        buf = io.StringIO()
        dump_sdp(prob, buf)
        text = buf.getvalue()
        assert text.startswith("popnc-sdp 1")
        assert "sense max" in text
        assert text.rstrip().endswith("end")
        assert text.count("constraint ") == len(prob.b)


def _random_sparse_rows(rng, p, d, per_row):
    """p random symmetric d x d matrices with about per_row entries each."""
    mats = []
    for _ in range(p):
        m = np.zeros((d, d))
        for _ in range(per_row):
            r, c = rng.integers(d, size=2)
            m[r, c] = m[c, r] = rng.standard_normal()
        mats.append(m)
    return mats


def _sym_random(rng, d):
    G = rng.standard_normal((d, d))
    return 0.5 * (G + G.T)


def _internal_block(mats, d):
    prob = dense_problem(block_dims=[d], num_free=0,
                      constraints=[LinearConstraint({0: m}, np.zeros(0), 0.0) for m in mats])
    return sdp._to_internal(prob).A[0]


class TestSchurFormulas:
    # (p, d, entries per row, formula the cost rule picks)
    SIDES = [(30, 6, 3, "dense"), (200, 40, 4, "low-rank")]

    @pytest.mark.parametrize("p,d,per_row,picked", SIDES)
    def test_rule_side(self, p, d, per_row, picked):
        blk = _internal_block(_random_sparse_rows(np.random.default_rng(p), p, d, per_row), d)
        blk.prepare()
        assert (blk.dense is not None, blk.plan is not None) == (picked == "dense", picked == "low-rank")

    @pytest.mark.parametrize("p,d,per_row,picked", SIDES)
    @pytest.mark.parametrize("row_cost", [0.0, math.inf])
    def test_both_formulas_match_dense_product(self, monkeypatch, p, d, per_row, picked, row_cost):
        rng = np.random.default_rng(p + d)
        mats = _random_sparse_rows(rng, p, d, per_row)
        G = rng.standard_normal((d, d))
        W = G @ G.T / d + np.eye(d)
        A = np.stack(mats)
        ref = A.reshape(p, -1) @ np.matmul(np.matmul(W, A), W).reshape(p, -1).T
        monkeypatch.setattr(sdp, "_SPARSE_ROW_COST", row_cost)  # 0 forces low-rank, inf dense
        blk = _internal_block(mats, d)
        blk.prepare()
        assert (blk.plan is not None) == (row_cost == 0.0)
        M = sdp._schur([blk], [W], p)
        assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()
        X = rng.standard_normal((d, d))
        y = rng.standard_normal(p)
        assert np.allclose(blk.apply(X), A.reshape(p, -1) @ X.ravel(), rtol=1e-12, atol=1e-12)
        assert np.allclose(blk.adjoint(y), np.tensordot(y, A, axes=1), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("p,d,q", [(120, 12, 10), (300, 9, 24)])
    def test_factored_matches_dense_product(self, p, d, q):
        # A_i = sum_k G[i, k] H_k: q classes of unordered positions, and each
        # row a combination of a few classes, with columns of varying length
        rng = np.random.default_rng(p + q)
        upper = np.triu_indices(d)
        lab = rng.integers(-1, q, size=upper[0].size)  # -1: a position in no class
        lab[rng.choice(lab.size, q, replace=False)] = np.arange(q)
        label = np.full((d, d), -1)
        label[upper] = lab
        label.T[upper] = lab
        H = np.stack([(label == k).astype(float) for k in range(q)])
        G = np.zeros((p, q))
        for i in range(p):
            picks = rng.choice(q, size=int(rng.integers(1, 4)), replace=False)
            G[i, picks] = rng.standard_normal(picks.size)
        A = np.tensordot(G, H, axes=1)
        Gw = rng.standard_normal((d, d))
        W = Gw @ Gw.T / d + np.eye(d)
        ref = A.reshape(p, -1) @ np.matmul(np.matmul(W, A), W).reshape(p, -1).T
        blk = _internal_block(list(A), d)
        blk.prepare()
        assert blk.factor is not None and blk.factor[1].p == q
        M = sdp._schur([blk], [W], p)
        assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()
        X = rng.standard_normal((d, d))
        y = rng.standard_normal(p)
        assert np.allclose(blk.apply(X), A.reshape(p, -1) @ X.ravel(), rtol=1e-12, atol=1e-12)
        assert np.allclose(blk.adjoint(y), np.tensordot(y, A, axes=1), rtol=1e-12, atol=1e-12)

    def test_rule_factors_localizing_blocks_only(self):
        # n = 4, k = 3: sigma_0 (35) over 210 rows, the ball block (15) and
        # the c - f block (5); no sign flip fixes the objective
        prob = build_hierarchy_step(parse_problem(
            "vars: x1 x2 x3 x4\nobj: x1^4 + x2^4 + x3^4 + x4^4 + x1 + x2 + x3 + x4\n"
            "ineq: 4 - x1^2 - x2^2 - x3^2 - x4^2\nc: 10\n"), 3)
        assert prob.block_dims == [35, 15, 5] and len(prob.b) == 210
        sigma0, ball, cf = sdp._to_internal(prob).A
        for blk in (sigma0, ball, cf):
            blk.prepare()
        # one class per monomial of degree <= 4 of the ball multiplier's Gram
        # matrix, and of degree <= 2 of the c - f one
        assert ball.factor is not None and ball.factor[1].p == 70
        assert cf.factor is not None and cf.factor[1].p == 15
        # in sigma_0 each class is one row
        assert sigma0.factor is None
        assert sigma0._classes()[0] == np.unique(sigma0.rows).size

    def test_low_rank_writes_rows_by_slice_or_index(self, monkeypatch):
        rng = np.random.default_rng(5)
        p, d = 40, 8
        mats = _random_sparse_rows(rng, p, d, 3)
        for i in (3, 17, 30):  # rows without entries
            mats[i] = np.zeros((d, d))
        Gw = rng.standard_normal((d, d))
        W = Gw @ Gw.T / d + np.eye(d)
        monkeypatch.setattr(sdp, "_SPARSE_ROW_COST", 0.0)  # forces low-rank
        for rows, write in ((mats, np.ndarray), ([m for m in mats if m.any()], slice)):
            blk = _internal_block(rows, d)
            blk.prepare()
            assert all(isinstance(entry[-1], write) for entry in blk.plan)
            A = np.stack(rows)
            ref = A.reshape(len(rows), -1) @ np.matmul(np.matmul(W, A), W).reshape(len(rows), -1).T
            M = sdp._schur([blk], [W], len(rows))
            assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()


class TestTriangularSolve:
    @pytest.mark.parametrize("n", [sdp._TRI_BLOCK - 1, sdp._TRI_BLOCK, 2 * sdp._TRI_BLOCK + 5])
    @pytest.mark.parametrize("trans", [False, True])
    def test_matches_linalg_solve(self, n, trans):
        rng = np.random.default_rng(n)
        G = rng.standard_normal((n, n))
        L = np.linalg.cholesky(G @ G.T + n * np.eye(n))
        T = L.T if trans else L
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            x = sdp._tri_solve(L, rhs, trans=trans)
            ref = np.linalg.solve(T, rhs)
            assert np.abs(x - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def _free_rows(b2: float) -> SdpProblem:
    """Rows 1 and 2 read u = 2 and 2u = b2: after elimination their
    combination has no PSD part, and is dropped when consistent."""
    return dense_problem(
        block_dims=[1], num_free=1,
        constraints=[
            LinearConstraint({0: np.array([[1.0]])}, np.array([0.0]), 1.0),
            LinearConstraint({}, np.array([1.0]), 2.0),
            LinearConstraint({}, np.array([2.0]), b2),
        ],
        obj_blocks={0: np.array([[1.0]])}, obj_free=np.array([0.0]),
    )


class TestFreeVariableSupport:
    def test_matches_hand_elimination(self):
        # u appears in rows 0 and 1 only; the other rows pass through
        # elimination unchanged.  Substituting u = b0 - <A0, X> by hand gives
        # a problem without free variables and the same optimal value.
        rng = np.random.default_rng(3)
        d, p, cu = 3, 5, 0.1
        mats = [_sym_random(rng, d) for _ in range(p)]
        X0 = np.eye(d) + 0.1 * _sym_random(rng, d)
        u0 = 0.7
        free = [1.0, 2.0, 0.0, 0.0, 0.0]
        rhs = [float(np.tensordot(m, X0)) + f * u0 for m, f in zip(mats, free)]
        C = 2.0 * np.eye(d)
        prob = dense_problem(
            block_dims=[d], num_free=1,
            constraints=[LinearConstraint({0: m}, np.array([f]), r) for m, f, r in zip(mats, free, rhs)],
            obj_blocks={0: C}, obj_free=np.array([cu]),
        )
        hand = dense_problem(
            block_dims=[d], num_free=0,
            constraints=[
                LinearConstraint({0: mats[1] - 2.0 * mats[0]}, np.zeros(0), rhs[1] - 2.0 * rhs[0]),
                *(LinearConstraint({0: m}, np.zeros(0), r) for m, r in zip(mats[2:], rhs[2:])),
            ],
            obj_blocks={0: C - cu * mats[0]}, obj_offset=cu * rhs[0],
        )
        sol, ref = solve(prob), solve(hand)
        assert sol.status is ref.status is Status.OPTIMAL
        assert sol.obj_primal == pytest.approx(ref.obj_primal, rel=1e-7, abs=1e-7)
        assert sol.free[0] == pytest.approx(rhs[0] - float(np.tensordot(mats[0], sol.X[0])), abs=1e-7)
        pres, dres, gap = recompute_residuals(prob, sol)
        assert max(pres, dres, gap) <= 5 * sdp.FEAS_TOL

    @pytest.mark.parametrize("b2,status", [(4.0, Status.OPTIMAL), (5.0, Status.PRIMAL_INFEASIBLE)])
    def test_rows_with_only_free_coefficients(self, b2, status):
        prob = _free_rows(b2)
        sol = solve(prob)
        assert sol.status is status
        if status is Status.OPTIMAL:
            assert sol.obj_primal == pytest.approx(1.0, abs=1e-7)
            assert sol.free[0] == pytest.approx(2.0, abs=1e-7)


class TestInfeasibilityCertificates:
    CASES = [(name, prob) for name, prob, status, _ in build_cases() if status is not Status.OPTIMAL]
    CASES.append(("free_rows_inconsistent", _free_rows(5.0)))

    @pytest.mark.parametrize("name,prob", CASES, ids=[name for name, _ in CASES])
    def test_ray_holds_on_caller_data(self, name, prob):
        check_certificate(prob, solve(prob))

    def test_rows_dependent_up_to_rounding(self):
        # one 1x1 block and three rows, the free variable on all of them, so
        # that every row's PSD part lies in range(B) up to the rounding of
        # the construction: what elimination leaves of the second combination
        # is 3e-14 of its scale, and must count as no constraint at all
        prob = random_instance(1441271, Status.DUAL_INFEASIBLE)
        sol = solve(prob)
        assert sol.status is Status.DUAL_INFEASIBLE, sol.message
        check_certificate(prob, sol)


class TestSchurConditioning:
    def test_trace_keys_on_every_factored_iteration(self, sextic, monkeypatch):
        # the sextic's coercivity program at k = 3: reduced by its joint
        # sign flip, and built without it
        largest = []
        for flips in (True, False):
            if not flips:
                monkeypatch.setattr(builder, "sign_flips", lambda polys, num_vars: ())
            sol = solve(build_coercivity_check(sextic, 3))
            assert sol.status is Status.OPTIMAL and sol.iterations == len(sol.trace) - 1
            for row in sol.trace[:-1]:
                assert row["schur_jitter"] >= 0.0 and row["schur_cond_lb"] >= 1.0
            assert "schur_jitter" not in sol.trace[-1] and "schur_cond_lb" not in sol.trace[-1]
            largest.append(max(row["schur_cond_lb"] for row in sol.trace[:-1]))
        reduced, unreduced = largest
        assert unreduced >= 1e6 * reduced


def _ball_quartic(n: int) -> SdpProblem:
    """The order-3 hierarchy step of sum x_i^4 + sum x_i over the ball of
    radius 2: no sign flip fixes it, so its C(n + 6, 6) rows stay one program."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    return build_hierarchy_step(parse_problem(
        f"vars: {' '.join(xs)}\nobj: " + " + ".join([f"{x}^4" for x in xs] + xs)
        + "\nineq: 4 - " + " - ".join(f"{x}^2" for x in xs) + "\nc: 10\n"), 3)


class TestSchurMemory:
    def test_ipm_holds_one_schur_matrix_and_its_factor(self, monkeypatch):
        # n = 5: 462 rows, 461 after the presolve.  Above what the presolve
        # leaves, the IPM holds M and its factor L at the Cholesky step (numpy
        # works on an untraced copy), and M and one product while M is formed;
        # a second M or L beside these would exceed 3 p^2
        prob = _ball_quartic(5)
        seen = {}
        reduced = sdp._solve_reduced

        def traced(red, Anorm):
            seen["p"], seen["before"] = red.b.size, tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sol = reduced(red, Anorm)
            seen["peak"] = tracemalloc.get_traced_memory()[1]
            return sol

        monkeypatch.setattr(sdp, "_solve_reduced", traced)
        tracemalloc.start()
        try:
            sol = solve(prob)
        finally:
            tracemalloc.stop()
        assert sol.status is Status.OPTIMAL
        p = seen["p"]
        assert p == 461
        assert seen["peak"] - seen["before"] < 3 * p * p * 8

    def test_low_rank_plan_stores_no_row_of_later_rows(self, monkeypatch):
        # 3000 rows of 1-2 entries each: one int64 index per row j >= i for
        # every row i would take 4 p (p + 1) bytes, 36 MB
        rng = np.random.default_rng(3)
        p, d = 3000, 40
        row = np.repeat(np.arange(p), 2)
        r, c = np.sort(rng.integers(0, d, (2, row.size)), axis=0)
        key = np.unique((row * d + r) * d + c)
        prob = SdpProblem([d], [(key // (d * d), key // d % d, key % d, rng.standard_normal(key.size))],
                          np.zeros((p, 0)), np.zeros(p))
        blk = sdp._to_internal(prob).A[0]
        monkeypatch.setattr(sdp, "_SPARSE_ROW_COST", 0.0)  # forces low-rank
        tracemalloc.start()
        try:
            blk.prepare()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blk.plan is not None and len(blk.plan) == p
        assert peak < p * (p + 1)

    def test_jitter_rewrites_the_diagonal_in_place(self, monkeypatch):
        # the first Schur factorization fails without jitter and at 1e-14:
        # each attempt factors M's own buffer, and the factor used at 1e-12 is
        # that of an untouched copy of M plus 1e-12 * mean(diag M) * I, bit for bit
        prob = _ball_quartic(2)
        dims = set(prob.block_dims)
        cholesky = np.linalg.cholesky
        attempts, factors = [], []

        def failing(a):
            if a.shape[0] in dims:  # a PSD block, not the Schur matrix
                return cholesky(a)
            attempts.append((a, a.copy()))
            if len(attempts) <= 2:
                raise np.linalg.LinAlgError("forced failure")
            factors.append(cholesky(a))
            return factors[-1]

        monkeypatch.setattr(sdp.np.linalg, "cholesky", failing)
        sol = solve(prob)
        assert sol.status is Status.OPTIMAL
        (M, M0), (M1, at14), (M2, at12) = attempts[:3]
        L = factors[0]
        assert np.shares_memory(M, M1) and np.shares_memory(M, M2)
        p = M0.shape[0]
        base = float(np.mean(np.diag(M0))) + 1e-300
        for jit, seen in ((1e-14, at14), (1e-12, at12)):
            copy = M0.copy()
            copy.flat[::p + 1] += jit * base
            assert np.array_equal(seen, copy)
        assert np.array_equal(L, cholesky(at12))
        assert sol.trace[0]["schur_jitter"] == 1e-12
        diag = np.diag(L)
        assert sol.trace[0]["schur_cond_lb"] == float((diag.max() / diag.min()) ** 2)
        assert all(row["schur_jitter"] == 0.0 for row in sol.trace[1:-1])
