"""Random quartics (and odd-degree objectives) in 2 to 4 variables through
the builder and its dict reference (``builder_reference``), bit for bit:
every family at orders k_min..k_min+2, with float or Fraction coefficients,
with and without sign flips, inequalities and equalities.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from builder_reference import assert_every_family  # noqa: E402
from popnc.polynomial import Polynomial  # noqa: E402

COEFFS = {"float": st.sampled_from([1.0, -1.0, 0.5, -0.25, 3.0, 1e-3]) | st.floats(-9, 9, allow_nan=False),
          "rational": st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))}


@st.composite
def polynomials(draw, n, max_degree, flip, coeffs):
    """A polynomial whose terms have an even degree in the variables of
    ``flip``, so that negating those variables leaves it unchanged."""
    monos = st.tuples(*[st.integers(0, max_degree)] * n).filter(
        lambda m: sum(m) <= max_degree and sum(m[i] for i in flip) % 2 == 0)
    return Polynomial(n, draw(st.dictionaries(monos, coeffs, max_size=5)))


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(data=st.data())
def test_random_quartics_build_as_the_reference(data):
    n = data.draw(st.integers(2, 4))
    flip = data.draw(st.sets(st.integers(0, n - 1)))  # empty: the terms need not leave any flip
    coeffs = COEFFS[data.draw(st.sampled_from(sorted(COEFFS)))]
    # x1^d + ... + xn^d: of even degree a coercivity subject; of odd degree,
    # unbounded below, so that some programs drop diagonal monomials
    d = data.draw(st.sampled_from([4, 3, 1]))
    f = Polynomial(n, {tuple(d if j == i else 0 for j in range(n)): 1 for i in range(n)})
    f = f + data.draw(polynomials(n, 4, flip, coeffs))
    if data.draw(st.booleans()):  # linear terms leave only flips of the variables in ``flip``
        f = f + Polynomial(n, {tuple(int(j == i) for j in range(n)): 1 for i in range(n) if i not in flip})
    c = data.draw(st.sampled_from([0.0, 2.0, Fraction(5, 2)]))
    problem = SimpleNamespace(
        objective=f, num_vars=n, resolved_c=lambda: c,
        inequalities=data.draw(st.lists(polynomials(n, 2, flip, coeffs), max_size=2)),
        equalities=data.draw(st.lists(polynomials(n, 2, flip, coeffs), max_size=1)))
    assert_every_family(problem)
