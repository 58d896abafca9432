"""Random SDPs of known status: the solver must never misclassify one.

Each instance is built around a witness of its status: a strictly feasible
primal point and a dual point with slack I (optimal), a Farkas ray y0 with
B'y0 = 0, sum y0_i A_i = -I and b'y0 = 1 (primal infeasible), or an
improving ray (I, u_r) with A(I) + B u_r = 0 and <C, I> + c'u_r = -1 on a
feasible problem (dual infeasible).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sdp_cases import check_certificate, recompute_residuals  # noqa: E402

from popnc.sdp import LinearConstraint, SdpProblem, SolverSettings, Status, solve  # noqa: E402

STATUSES = (Status.OPTIMAL, Status.PRIMAL_INFEASIBLE, Status.DUAL_INFEASIBLE)
SETTINGS = SolverSettings()


def _sym(rng, d):
    G = rng.standard_normal((d, d))
    return G + G.T


def _pd(rng, d):
    G = rng.standard_normal((d, d))
    return G @ G.T / d + np.eye(d)


def random_instance(seed: int, status: Status) -> SdpProblem:
    """Blocks of size 1-3, 2-6 rows, 0-2 free variables on a random subset of
    the rows, built to have the given status."""
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 4, size=rng.integers(1, 4))]
    nu = sum(dims)
    p, q = int(rng.integers(2, 7)), int(rng.integers(0, 3))
    A = [[_sym(rng, d) for d in dims] for _ in range(p)]
    B = np.zeros((p, q))
    # with q >= p a subset of all rows could make range(B) everything, and
    # leave no Farkas ray y0 with B'y0 = 0
    rows = rng.choice(p, size=int(rng.integers(1, p + (q < p))), replace=False)
    B[rows] = rng.standard_normal((rows.size, q))
    C = [_sym(rng, d) for d in dims]
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
        X0 = [_pd(rng, d) for d in dims]
        u0 = rng.standard_normal(q)
        b = np.array([sum(np.vdot(Ab, Xb) for Ab, Xb in zip(A[i], X0)) for i in range(p)]) + B @ u0

    flip = 1.0 if rng.integers(2) else -1.0
    return SdpProblem(
        block_dims=dims, num_free=q,
        constraints=[LinearConstraint(dict(enumerate(A[i])), B[i], float(b[i])) for i in range(p)],
        obj_blocks={bi: flip * Cb for bi, Cb in enumerate(C)}, obj_free=flip * c,
        sense="min" if flip > 0 else "max",
    )


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(seed=st.integers(0, 2**32 - 1), status=st.sampled_from(STATUSES))
def test_random_sdp_of_known_status(seed, status):
    prob = random_instance(seed, status)
    sol = solve(prob)
    assert sol.status is status, sol.message
    if status is Status.OPTIMAL:
        pres, dres, gap = recompute_residuals(prob, sol)
        assert max(pres, dres) <= 5 * SETTINGS.feas_tol and gap <= 5 * SETTINGS.gap_tol
    else:
        check_certificate(prob, sol)
