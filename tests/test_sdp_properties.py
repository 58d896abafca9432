"""Random SDPs of known status: the solver must never misclassify one.

Each instance is built around a witness of its status: a strictly feasible
primal point and a dual point with slack I (optimal), a Farkas ray y0 with
B'y0 = 0, sum y0_i A_i = -I and b'y0 = 1 (primal infeasible), or an
improving ray (I, u_r) with A(I) + B u_r = 0 and <C, I> + c'u_r = -1 on a
feasible problem (dual infeasible).
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sdp_cases import check_certificate, random_instance, recompute_residuals  # noqa: E402

from popnc.sdp import FEAS_TOL, GAP_TOL, Status, solve  # noqa: E402

STATUSES = (Status.OPTIMAL, Status.PRIMAL_INFEASIBLE, Status.DUAL_INFEASIBLE)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(seed=st.integers(0, 2**32 - 1), status=st.sampled_from(STATUSES))
def test_random_sdp_of_known_status(seed, status):
    prob = random_instance(seed, status)
    sol = solve(prob)
    assert sol.status is status, sol.message
    if status is Status.OPTIMAL:
        pres, dres, gap = recompute_residuals(prob, sol)
        assert max(pres, dres) <= 5 * FEAS_TOL and gap <= 5 * GAP_TOL
    else:
        check_certificate(prob, sol)
