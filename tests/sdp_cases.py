"""Hand-built SDP suite with known statuses, shared by solver and acceptance tests,
random SDPs built around a witness of their status, and checks of a solution
against the caller's data."""

from __future__ import annotations

import math

import numpy as np

from popnc.sdp import LinearConstraint, SdpProblem, Status


def _c(blocks, free, rhs):
    return LinearConstraint(blocks, np.asarray(free, dtype=float), rhs)


def _upper_entries(mat):
    """The (r, c, value) arrays of a dense matrix's nonzero upper-triangle entries."""
    mat = np.asarray(mat, dtype=float)
    r, c = np.nonzero(np.triu(mat))
    return r, c, mat[r, c]


def dense_problem(block_dims, num_free, constraints, objective=None, **kw) -> SdpProblem:
    """An SdpProblem from rows, and an objective, written with a dense matrix
    per block: each matrix's nonzero upper-triangle entries, the free
    coefficients as B."""
    parts = [[] for _ in block_dims]
    for i, con in enumerate(constraints):
        for bi, mat in con.blocks.items():
            r, c, val = _upper_entries(mat)
            parts[bi].append((np.full(r.size, i), r, c, val))
    entries = [tuple(np.concatenate(a) for a in zip(*part)) if part
               else (np.zeros(0, dtype=int),) * 3 + (np.zeros(0),) for part in parts]
    B = np.array([con.free for con in constraints], dtype=float).reshape(len(constraints), num_free)
    b = np.array([con.rhs for con in constraints], dtype=float)
    obj_entries = {bi: _upper_entries(mat) for bi, mat in (objective or {}).items()}
    return SdpProblem(block_dims=list(block_dims), entries=entries, B=B, b=b, obj_entries=obj_entries, **kw)


def objective_matrix(problem: SdpProblem, bi: int) -> np.ndarray:
    """C_b as a dense matrix, from its entries; zero for a block without them."""
    d = problem.block_dims[bi]
    C = np.zeros((d, d))
    if bi in problem.obj_entries:
        r, c, val = problem.obj_entries[bi]
        C[r, c] = C[c, r] = val
    return C


def build_cases() -> list[tuple[str, SdpProblem, Status, float | None]]:
    """(name, problem, expected status, expected objective or None)."""
    cases: list[tuple[str, SdpProblem, Status, float | None]] = []

    # 1. min x s.t. [[x,1],[1,x]] PSD  (x* = 1, from the determinant condition)
    cases.append((
        "toeplitz_min",
        dense_problem(
            block_dims=[2], num_free=0,
            constraints=[
                _c({0: np.array([[1.0, 0.0], [0.0, -1.0]])}, [], 0.0),
                _c({0: np.array([[0.0, 0.5], [0.5, 0.0]])}, [], 1.0),
            ],
            objective={0: np.array([[1.0, 0.0], [0.0, 0.0]])},
            obj_free=np.zeros(0),
        ),
        Status.OPTIMAL, 1.0,
    ))

    # 2. trace X = -1 with X PSD: infeasible
    cases.append((
        "negative_trace",
        dense_problem(
            block_dims=[2], num_free=0,
            constraints=[_c({0: np.eye(2)}, [], -1.0)],
            obj_free=np.zeros(0),
        ),
        Status.PRIMAL_INFEASIBLE, None,
    ))

    # 3. max lambda s.t. 1 - lambda >= 0 on a 1x1 block
    cases.append((
        "scalar_bound",
        dense_problem(
            block_dims=[1], num_free=1,
            constraints=[_c({0: np.array([[1.0]])}, [1.0], 1.0)],
            obj_free=np.array([1.0]), sense="max",
        ),
        Status.OPTIMAL, 1.0,
    ))

    # 4. feasibility: X11 = 1, zero objective
    cases.append((
        "feasibility",
        dense_problem(
            block_dims=[2], num_free=0,
            constraints=[_c({0: np.array([[1.0, 0.0], [0.0, 0.0]])}, [], 1.0)],
            obj_free=np.zeros(0),
        ),
        Status.OPTIMAL, 0.0,
    ))

    # 5. unbounded below: min X11 - X22 with X11 pinned
    cases.append((
        "unbounded_cone",
        dense_problem(
            block_dims=[2], num_free=0,
            constraints=[_c({0: np.array([[1.0, 0.0], [0.0, 0.0]])}, [], 1.0)],
            objective={0: np.diag([1.0, -1.0])}, obj_free=np.zeros(0),
        ),
        Status.DUAL_INFEASIBLE, None,
    ))

    # 6. diagonal entry forced negative
    cases.append((
        "negative_diagonal",
        dense_problem(
            block_dims=[2], num_free=0,
            constraints=[_c({0: np.array([[1.0, 0.0], [0.0, 0.0]])}, [], -2.0)],
            obj_free=np.zeros(0),
        ),
        Status.PRIMAL_INFEASIBLE, None,
    ))

    # 7. free variable pinned by a second equation: min X11, X11 + u = 2, u = 1
    cases.append((
        "pinned_free",
        dense_problem(
            block_dims=[1], num_free=1,
            constraints=[
                _c({0: np.array([[1.0]])}, [1.0], 2.0),
                _c({}, [1.0], 1.0),
            ],
            objective={0: np.array([[1.0]])}, obj_free=np.zeros(1),
        ),
        Status.OPTIMAL, 1.0,
    ))

    # 8. objective along an unconstrained free direction: unbounded
    cases.append((
        "free_unbounded",
        dense_problem(
            block_dims=[1], num_free=1,
            constraints=[_c({0: np.array([[1.0]])}, [0.0], 1.0)],
            obj_free=np.array([1.0]),
        ),
        Status.DUAL_INFEASIBLE, None,
    ))

    # 9. zero-coefficient row with nonzero right-hand side
    cases.append((
        "zero_row",
        dense_problem(
            block_dims=[1], num_free=0,
            constraints=[_c({}, [], 1.0)],
            obj_free=np.zeros(0),
        ),
        Status.PRIMAL_INFEASIBLE, None,
    ))

    # 10. two blocks coupled through two equations
    cases.append((
        "two_blocks",
        dense_problem(
            block_dims=[1, 1], num_free=0,
            constraints=[
                _c({0: np.array([[1.0]]), 1: np.array([[1.0]])}, [], 2.0),
                _c({0: np.array([[1.0]]), 1: np.array([[-1.0]])}, [], 0.0),
            ],
            objective={0: np.array([[1.0]]), 1: np.array([[1.0]])},
            obj_free=np.zeros(0),
        ),
        Status.OPTIMAL, 2.0,
    ))

    # 11. contradictory equations on the same entry
    cases.append((
        "contradictory_rows",
        dense_problem(
            block_dims=[2], num_free=0,
            constraints=[
                _c({0: np.array([[1.0, 0.0], [0.0, 0.0]])}, [], 1.0),
                _c({0: np.array([[1.0, 0.0], [0.0, 0.0]])}, [], 2.0),
            ],
            obj_free=np.zeros(0),
        ),
        Status.PRIMAL_INFEASIBLE, None,
    ))

    # 12. 1x1 linear program in disguise: max lambda s.t. lambda <= 3
    cases.append((
        "scalar_lp",
        dense_problem(
            block_dims=[1], num_free=1,
            constraints=[_c({0: np.array([[1.0]])}, [1.0], 3.0)],
            obj_free=np.array([1.0]), sense="max",
        ),
        Status.OPTIMAL, 3.0,
    ))

    return cases


def recompute_residuals(problem: SdpProblem, sol):
    """Independent feasibility/gap check from the returned (X, u, y) only."""
    flip = -1.0 if problem.sense == "max" else 1.0
    p = len(problem.constraints)
    pres = 0.0
    bmax = max((abs(c.rhs) for c in problem.constraints), default=0.0)
    for i, con in enumerate(problem.constraints):
        lhs = sum(float(np.tensordot(mat, sol.X[bi])) for bi, mat in con.blocks.items())
        if problem.num_free:
            lhs += float(np.dot(con.free, sol.free))
        pres = max(pres, abs(lhs - con.rhs))
    pres /= 1.0 + bmax

    Z = []
    cnorm = 0.0
    for bi in range(len(problem.block_dims)):
        Cb = flip * objective_matrix(problem, bi)
        cnorm += float(np.tensordot(Cb, Cb))
        Zb = Cb.copy()
        for i, con in enumerate(problem.constraints):
            if bi in con.blocks:
                Zb -= sol.y[i] * np.asarray(con.blocks[bi], dtype=float)
        Z.append(0.5 * (Zb + Zb.T))
    cnorm = 1.0 + cnorm**0.5
    dres = max((max(0.0, -float(np.linalg.eigvalsh(Zb).min())) for Zb in Z), default=0.0) / cnorm

    free_mismatch = 0.0
    if problem.num_free:
        cfree = flip * np.asarray(problem.obj_free, dtype=float)
        acc = np.zeros(problem.num_free)
        for i, con in enumerate(problem.constraints):
            acc += sol.y[i] * con.free
        free_mismatch = float(np.abs(acc - cfree).max()) / (1.0 + float(np.abs(cfree).max()))

    gap = abs(sol.obj_primal - sol.obj_dual) / (1.0 + abs(sol.obj_primal) + abs(sol.obj_dual))
    return pres, max(dres, free_mismatch), gap


def check_certificate(problem: SdpProblem, sol) -> None:
    """Assert that an infeasibility certificate holds on the caller's data.

    A Farkas ray y has b'y > 0, B'y = 0 and sum y_i A_i <= 0; an improving
    ray (X, u) has A(X) + B u = 0, X PSD and <C, X> + c'u < 0 in
    minimization form.
    """
    flip = -1.0 if problem.sense == "max" else 1.0
    rows = problem.constraints
    if sol.status is Status.PRIMAL_INFEASIBLE:
        y = np.asarray(sol.y)
        scale = 1.0 + float(np.abs(y).max(initial=0.0))
        assert sum(yi * con.rhs for yi, con in zip(y, rows)) > 0
        Bty = sum((yi * con.free for yi, con in zip(y, rows)), np.zeros(problem.num_free))
        assert float(np.abs(Bty).max(initial=0.0)) <= 1e-12 * scale
        for bi, d in enumerate(problem.block_dims):
            Aty = sum((yi * np.asarray(con.blocks[bi], dtype=float)
                       for yi, con in zip(y, rows) if bi in con.blocks), np.zeros((d, d)))
            assert float(np.linalg.eigvalsh(Aty).max()) <= 1e-9 * scale
    elif sol.status is Status.DUAL_INFEASIBLE:
        X, u = sol.X, np.asarray(sol.free)
        resid = max((abs(sum(float(np.tensordot(mat, X[bi])) for bi, mat in con.blocks.items())
                         + float(np.dot(con.free, u))) for con in rows), default=0.0)
        assert resid <= 1e-6 * (1.0 + math.sqrt(sum(float(np.vdot(Xb, Xb)) for Xb in X)))
        for Xb in X:
            assert float(np.linalg.eigvalsh(Xb).min()) >= -1e-9
        obj = sum(float(np.tensordot(objective_matrix(problem, bi), X[bi])) for bi in problem.obj_entries)
        if problem.num_free and problem.obj_free is not None:
            obj += float(np.dot(problem.obj_free, u))
        assert flip * obj < 0
    else:
        raise AssertionError(f"{sol.status} carries no infeasibility certificate")


def _random_sym(rng, d):
    G = rng.standard_normal((d, d))
    return G + G.T


def _random_pd(rng, d):
    G = rng.standard_normal((d, d))
    return G @ G.T / d + np.eye(d)


def random_instance(seed: int, status: Status) -> SdpProblem:
    """Blocks of size 1-3, 2-6 rows, 0-2 free variables on a random subset of
    the rows, built to have the given status."""
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 4, size=rng.integers(1, 4))]
    nu = sum(dims)
    p, q = int(rng.integers(2, 7)), int(rng.integers(0, 3))
    A = [[_random_sym(rng, d) for d in dims] for _ in range(p)]
    B = np.zeros((p, q))
    # with q >= p a subset of all rows could make range(B) everything, and
    # leave no Farkas ray y0 with B'y0 = 0
    rows = rng.choice(p, size=int(rng.integers(1, p + (q < p))), replace=False)
    B[rows] = rng.standard_normal((rows.size, q))
    C = [_random_sym(rng, d) for d in dims]
    c = B.T @ rng.standard_normal(p)

    if status is Status.PRIMAL_INFEASIBLE:
        y0 = rng.standard_normal(p)
        y0 -= B @ np.linalg.lstsq(B, y0, rcond=None)[0]
        y0 /= y0[np.argmax(np.abs(y0))]
        j = int(np.argmax(np.abs(y0)))  # y0[j] = 1
        A[j] = [-np.eye(d) - sum((y0[i] * A[i][bi] for i in range(p) if i != j), np.zeros((d, d)))
                for bi, d in enumerate(dims)]
        b = rng.standard_normal(p)
        b[j] = 1.0 - (b @ y0 - b[j])
    else:
        if status is Status.OPTIMAL:
            y1 = rng.standard_normal(p)
            C = [np.eye(d) + sum(y1[i] * A[i][bi] for i in range(p)) for bi, d in enumerate(dims)]
            c = B.T @ y1
        else:
            u_r = rng.standard_normal(q)
            for i in range(p):
                t = (sum(np.trace(Ab) for Ab in A[i]) + B[i] @ u_r) / nu
                A[i] = [Ab - t * np.eye(d) for Ab, d in zip(A[i], dims)]
            c = rng.standard_normal(q)
            t = (sum(np.trace(Cb) for Cb in C) + c @ u_r + 1.0) / nu
            C = [Cb - t * np.eye(d) for Cb, d in zip(C, dims)]
        X0 = [_random_pd(rng, d) for d in dims]
        u0 = rng.standard_normal(q)
        b = np.array([sum(np.vdot(Ab, Xb) for Ab, Xb in zip(A[i], X0)) for i in range(p)]) + B @ u0

    flip = 1.0 if rng.integers(2) else -1.0
    return dense_problem(
        block_dims=dims, num_free=q,
        constraints=[LinearConstraint(dict(enumerate(A[i])), B[i], float(b[i])) for i in range(p)],
        objective={bi: flip * Cb for bi, Cb in enumerate(C)}, obj_free=flip * c,
        sense="min" if flip > 0 else "max",
    )
