"""The certificate identity residual against the ``Polynomial`` arithmetic it
replaced (``gram_reference.reference_residual``): the same value of the same
type, floats bit for bit, on the cases the property test draws rarely: a psi
weight, the int-coefficient coercivity sphere, every lambda sign with an
exact and a float lambda, payload multipliers that mix JSON numbers and
"p/q" strings, and products whose exponents do not pack into one int64.
Also: ``popnc verify`` never imports ``numpy.ma``.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from gram_reference import reference_residual, same
import popnc
from popnc.certificates import (
    GeneratorSet,
    ModuleCertificate,
    SosWeight,
    Statement,
    bound_statement,
    certificate_from_payload,
    corollary_transform,
    identity_residual,
    statement,
    verify_certificate,
)
from popnc.polynomial import Polynomial, sum_of_squared_variables
from popnc.problem_io import parse_polynomial, parse_problem

F = Fraction
V2 = ["x1", "x2"]
BASIS = [(0, 0), (1, 0), (0, 1)]
FLOAT_GRAM = np.array([[1.5, 0.25, -0.5], [0.25, 2.0, 0.125], [-0.5, 0.125, 1.0 / 3]])
RATIONAL_GRAM = [[F(3, 2), F(1, 4), F(-1, 2)], [F(1, 4), F(2), F(1, 8)], [F(-1, 2), F(1, 8), F(1, 3)]]


def check(cert, claim):
    want = reference_residual(cert, claim)
    got = verify_certificate(cert, claim).residual
    assert same(got, want), (got, want)
    assert same(identity_residual(cert, claim), want)


def sphere_claim(rational):
    """The coercivity statement of x1^4 + x2^4 - x1^2 x2^2 + x1: its generator
    |x|^2 - 1 has int coefficients, the target those of the parsed form."""
    f = parse_polynomial("x1^4 + x2^4 - x1^2*x2^2 + x1", V2, rational=rational)
    claim = statement("coercivity", f)
    assert set(map(type, claim.gens.eq[0].terms.values())) == {int}
    return claim


@pytest.mark.parametrize("gram", [FLOAT_GRAM, RATIONAL_GRAM], ids=["float gram", "rational gram"])
@pytest.mark.parametrize("rational", [False, True], ids=["float target", "exact target"])
@pytest.mark.parametrize("lam", [0.75, F(3, 4)], ids=["float lambda", "exact lambda"])
def test_sphere_with_int_coefficients(gram, rational, lam):
    claim = sphere_claim(rational)
    phi = Polynomial(2, {(2, 0): F(1, 2), (0, 2): 0.5, (1, 1): -1})
    cert = ModuleCertificate(num_vars=2, order=2, lam=lam, lam_sign=1,
                             sos_weights=[SosWeight("sigma0", None, [(2, 0), (1, 1), (0, 2)], gram)],
                             eq_multipliers=[(0, phi)])
    check(cert, claim)


@pytest.mark.parametrize("sign", [-1, 0, 1])
@pytest.mark.parametrize("lam", [0.5, F(1, 2), 0, F(0), -0.0],
                         ids=["float", "exact", "int 0", "exact 0", "-0.0"])
@pytest.mark.parametrize("rational", [False, True], ids=["float problem", "exact problem"])
def test_every_lambda_sign(sign, lam, rational):
    f = parse_polynomial("x1^2 + 1/3*x2 - 2", V2, rational=rational)
    g = parse_polynomial("1 - x1^2 - x2^2", V2, rational=rational)
    claim = Statement("hierarchy", f, GeneratorSet(2, (g,)), sign)
    for gram in (FLOAT_GRAM, RATIONAL_GRAM):
        cert = ModuleCertificate(num_vars=2, order=1, lam=lam, lam_sign=sign,
                                 sos_weights=[SosWeight("sigma0", None, BASIS, gram),
                                              SosWeight("ineq", 0, [(0, 0)], [[F(1, 5)]])])
        check(cert, claim)


@pytest.mark.parametrize("gram", [FLOAT_GRAM, RATIONAL_GRAM], ids=["float gram", "rational gram"])
def test_psi_weight_is_no_module_term(gram):
    problem = parse_problem("vars: x1 x2\nobj: x1^2 + 1\nineq: 1 - x2^2\nineq: x2^2 - 1/4\nc: 2\n")
    psi = SosWeight("psi", None, BASIS, gram)
    claim = statement("module", problem, psi.polynomial(2))
    cert = ModuleCertificate(num_vars=2, order=1, lam=0, lam_sign=0, family="module",
                             sos_weights=[SosWeight("sigma0", None, BASIS, gram),
                                          SosWeight("ineq", 1, [(0, 0)], [[F(4, 3)]]), psi])
    check(cert, claim)
    # the psi weight changes the target only: without it the residual is the same
    cert.sos_weights.pop()
    check(cert, claim)


@pytest.mark.parametrize("rational", [False, True], ids=["float problem", "exact problem"])
def test_payload_multipliers_mix_numbers_and_strings(rational):
    problem = parse_problem("vars: x1 x2\nobj: x1^2 + x2^2 - x1*x2\neq: x1 + x2 - 1\nc: 3\n",
                            rational=rational)
    payload = {
        "family": "hierarchy", "num_vars": 2, "order": 1, "lambda": "1/4", "lambda_sign": 1,
        "sos_weights": [{"tag": "sigma0", "index": None, "basis": [list(m) for m in BASIS],
                         "gram": [["1/2", "0/1", "0/1"], ["0/1", "1/1", "-1/2"], ["0/1", "-1/2", "1/1"]]}],
        "eq_multipliers": [{"index": 0, "terms": [[[0, 0], 0.25], [[1, 0], "-1/3"], [[0, 1], 0.1]]}],
    }
    cert = certificate_from_payload(json.loads(json.dumps(payload)))
    assert {type(c) for c in cert.eq_multipliers[0][1].terms.values()} == {float, F}
    check(cert, statement("hierarchy", problem))


def test_corollary_transform_residual():
    # the transformed certificate's residual is the same function's
    f = parse_polynomial("x1^2 + 1", V2, rational=True)
    g1 = parse_polynomial("1 - x2^2", V2, rational=True)
    g2 = parse_polynomial("x2^2 - 1/4", V2, rational=True)
    gens = GeneratorSet(num_vars=2, ineq=(g1, g2, Polynomial.constant(2, F(2)) - f), cf_index=2)
    cert = ModuleCertificate(num_vars=2, order=2, lam=0, lam_sign=0, sos_weights=[
        SosWeight("sigma0", None, [(0, 0)], [[F(1, 2)]]), SosWeight("ineq", 0, [(1, 0)], [[F(2)]]),
        SosWeight("ineq", 1, [(1, 0)], [[F(2)]]), SosWeight("cf", 2, [(0, 0)], [[F(1, 2)]])])
    _, out = corollary_transform(cert, f, gens, F(2))
    module = bound_statement("module", f, gens, cert.weight("cf").polynomial(2))
    assert same(out.residual, reference_residual(out, module)) and same(out.residual, 0)


def forty_variables(gram):
    """sigma_0 = x1^2 + ... + x40^2 over the basis x1 ... x40, the objective
    of the same sum, lambda = 0: a pair's digit is 3 per variable, and 3^40
    exceeds 2^62."""
    n = 40
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert math.prod([3] * n) > 2**62
    f = sum_of_squared_variables(n)
    claim = Statement("hierarchy", f, GeneratorSet(n, (Polynomial.constant(n, 1.0) - f,), cf_index=0), 1)
    return claim, ModuleCertificate(num_vars=n, order=1, lam=0.0, lam_sign=1,
                                    sos_weights=[SosWeight("sigma0", None, basis, gram),
                                                 SosWeight("cf", 0, [(0,) * n], [[0.25]])])


@pytest.mark.parametrize("make", [
    lambda n: np.eye(n),
    lambda n: [[F(int(i == j), 1) for j in range(n)] for i in range(n)],
    lambda n: np.eye(n) + 1e-3 * np.arange(n * n).reshape(n, n) % 7,
], ids=["float identity", "rational identity", "float perturbed"])
def test_products_beyond_one_int64_group_by_lexsort(make):
    claim, cert = forty_variables(make(40))
    check(cert, claim)


def test_large_exponents_group_by_lexsort():
    # one exponent of 2^40 in each variable: the digits' product exceeds 2^62
    big = 2**40
    basis = [(0, 0, 0), (big, 0, 0), (0, big, 1), (1, 1, big)]
    f = Polynomial(3, {(2 * big, 0, 0): 1.5, (0, 2 * big, 2): -0.25, (1, 1, 0): F(1, 3)})
    g = Polynomial(3, {(0, 0, 0): 1, (1, 0, 0): -0.5})
    claim = Statement("hierarchy", f, GeneratorSet(3, (g,)), 1)
    gram = np.arange(16.0).reshape(4, 4) / 7
    cert = ModuleCertificate(num_vars=3, order=1, lam=F(2, 3), lam_sign=1,
                             sos_weights=[SosWeight("sigma0", None, basis, gram),
                                          SosWeight("ineq", 0, basis[:2], [[F(1, 2), 0], [0, F(5, 3)]])])
    check(cert, claim)


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(popnc.__file__)))
_CERTS = {
    "float": {"family": "hierarchy", "num_vars": 2, "order": 1, "lambda": 0.5, "lambda_sign": 1,
              "sos_weights": [{"tag": "sigma0", "index": None, "basis": [[0, 0], [1, 0], [0, 1]],
                               "gram": [[0.5, 0, 0], [0, 1, -0.5], [0, -0.5, 1]]}]},
    "rational": {"family": "hierarchy", "num_vars": 2, "order": 1, "lambda": "1/2", "lambda_sign": 1,
                 "sos_weights": [{"tag": "sigma0", "index": None, "basis": [[0, 0], [1, 0], [0, 1]],
                                  "gram": [["1/2", "0/1", "0/1"], ["0/1", "1/1", "-1/2"],
                                           ["0/1", "-1/2", "1/1"]]}]},
}


@pytest.mark.parametrize("payload", list(_CERTS))
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_verify_never_imports_numpy_ma(tmp_path, payload, flags):
    # numpy loads numpy.ma on the first call that needs it (a bare np.unique does)
    (tmp_path / "two.pop").write_text("vars: x y\nobj: x^2 + y^2 - x*y + 1\nineq: 1 - x^2 - y^2\nc: 3\n")
    (tmp_path / "cert.json").write_text(json.dumps(_CERTS[payload]))
    argv = ["verify", str(tmp_path / "cert.json"), str(tmp_path / "two.pop"), *flags]
    code = ("import sys\nfrom popnc.cli import cli_main\n"
            f"assert cli_main({argv!r}) == 0\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
