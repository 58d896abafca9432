"""The builder's array assembly against the dict assembly it replaced
(``builder_reference``), bit for bit: block dims, kept bases, solver blocks,
rows, B, b, the objective and each block's entries sorted by (row, r, c).
Every family at orders k_min..k_min+2 on EX31 and on EX31 with odd terms
and an equality (float and rational), and on the sextic; and one
40-variable program.  Random objectives are in
``test_builder_assembly_properties``.
"""

from types import SimpleNamespace

import pytest

from builder_reference import assert_every_family, assert_same_program
from popnc.certificates import statement
from popnc.polynomial import Polynomial
from popnc.problem_io import parse_problem

EX31 = "vars: x1 x2\nobj: x1^2 + 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nc: 2\n"
SEXTIC = "vars: x1 x2\nobj: x1^6 + x2^6 - x1^3*x2^3 + x1^4 - x2 + 1\nx0: 0 0\nmargin: 1\n"
# EX31 with odd terms and an equality: no sign flip, and free multipliers
EX31_ASYMMETRIC = ("vars: x1 x2\nobj: x1^2 + x1 + x2 + 1\nineq: 1 - x2^2\n"
                   "eq: x1^2 + x2 - 1/3\nc: 2\n")


@pytest.mark.parametrize("text, rational", [(EX31, False), (EX31, True), (SEXTIC, False),
                                            (EX31_ASYMMETRIC, False), (EX31_ASYMMETRIC, True)],
                         ids=["ex31", "ex31-rational", "sextic", "asymmetric", "asymmetric-rational"])
def test_fixed_problems_build_as_the_reference(text, rational):
    assert assert_every_family(parse_problem(text, rational=rational)) >= 6


def test_forty_variables_build_as_the_reference():
    # x1^2 + ... + x40^2 + x1 x2 + ... + x39 x40 at k = 1: only the flip of
    # every variable leaves it unchanged, so sigma_0 keeps the 820 pairs of
    # linear monomials; its product exponents do not pack into one int64
    # (3^40 > 2^62), so the rows are grouped by a lexsort
    n = 40
    xs = [Polynomial.variable(n, i) for i in range(n)]
    f = Polynomial.zero(n)
    for i in range(n):
        f = f + xs[i] * xs[i] + (xs[i] * xs[i + 1] if i + 1 < n else Polynomial.zero(n))
    problem = SimpleNamespace(objective=f, inequalities=[], equalities=[], num_vars=n, resolved_c=lambda: 1.0)
    claim = statement("hierarchy", problem)
    assert claim.min_order() == 1
    assert assert_same_program(claim, 1).block_dims == [41, 1]
