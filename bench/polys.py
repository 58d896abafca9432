"""Seeded problem and certificate generators for the benchmark.

Everything here is independent of popnc: polynomials are plain dicts mapping
exponent tuples to float or Fraction coefficients, so the checker can
evaluate objectives and constraints without trusting the program under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np


def names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def mono(n: int, *powers: tuple[int, int]) -> tuple[int, ...]:
    """Exponent tuple from (variable index, power) pairs."""
    e = [0] * n
    for i, p in powers:
        e[i] += p
    return tuple(e)


def add(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c != 0}


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def evaluate(p: dict, x) -> float:
    return sum(float(c) * math.prod(xi ** e for xi, e in zip(x, m)) for m, c in p.items())


def degree(p: dict) -> int:
    return max((sum(m) for m in p), default=0)


def top_form(p: dict) -> dict:
    d = degree(p)
    return {m: c for m, c in p.items() if sum(m) == d}


def sign_flips(polys: list[dict], n: int) -> list[int]:
    """Variables x_i whose sign flip leaves every polynomial unchanged
    (every exponent of x_i is even)."""
    return [i for i in range(n) if all(m[i] % 2 == 0 for p in polys for m in p)]


def _num(c) -> str:
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)
    return repr(float(c))


def render(p: dict, n: int) -> str:
    """The .pop expression syntax; terms in a fixed order, exact coefficients."""
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=lambda m: (-sum(m), tuple(-e for e in m))):
        c = p[m]
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names(n), m) if e]
        mag = abs(c)
        body = "*".join(([] if mag == 1 and factors else [_num(mag)]) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def problem_text(inst: dict) -> str:
    n = inst["n"]
    lines = [f"vars: {' '.join(names(n))}", f"obj: {render(inst['obj'], n)}"]
    lines += [f"ineq: {render(g, n)}" for g in inst["ineq"]]
    lines += [f"eq: {render(h, n)}" for h in inst["eq"]]
    if inst.get("x0") is not None:
        lines += [f"x0: {' '.join(_num(v) for v in inst['x0'])}", f"margin: {_num(inst['margin'])}"]
    else:
        lines.append(f"c: {_num(inst['c'])}")
    return "\n".join(lines) + "\n"


def resolved_c(inst: dict) -> float:
    if inst.get("x0") is not None:
        return evaluate(inst["obj"], inst["x0"]) + float(inst["margin"])
    return float(inst["c"])


# ---------------------------------------------------------------------------
# problem instances
# ---------------------------------------------------------------------------

def _r(rng: random.Random, lo: float, hi: float, digits: int = 2) -> float:
    return round(rng.uniform(lo, hi), digits)


def small_instance(rng: random.Random, n: int, sym: bool, with_eq: bool) -> dict:
    """A quartic on n variables with a ball constraint.

    sym: every exponent is even, so the data is invariant under each
    single-variable sign flip.  Otherwise odd monomials of every degree appear
    and a linear half-space joins the ball.  with_eq adds one equality that is
    solvable for x1 (quadratic in x1 when sym, linear otherwise), so feasible
    sample points can be constructed.
    """
    x0 = [rng.choice((-0.5, 0.0, 0.5)) for _ in range(n)]
    if with_eq:
        x0[0] = rng.choice((-0.5, 0.5))
    obj = {mono(n, (i, 4)): _r(rng, 0.5, 1.5) for i in range(n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in rng.sample(pairs, min(2, len(pairs))):
        obj[mono(n, (i, 2), (j, 2))] = _r(rng, -1.0, 1.5)
    for i in range(n):
        obj[mono(n, (i, 2))] = _r(rng, -2.0, 1.0)
    if not sym:
        for _ in range(2):
            i, j = rng.sample(range(n), 2)
            obj = add(obj, {mono(n, (i, 3), (j, 1)): _r(rng, -0.5, 0.5)})
        for _ in range(2):
            i, j, l = (rng.randrange(n) for _ in range(3))
            obj = add(obj, {mono(n, (i, 1), (j, 1), (l, 1)): _r(rng, -1.0, 1.0)})
        for i in range(n):
            obj = add(obj, {mono(n, (i, 1)): _r(rng, -1.0, 1.0)})
    radius2 = rng.choice((2, 3, 4))
    ineq = [add({mono(n): radius2}, {mono(n, (i, 2)): -1 for i in range(n)})]
    if not sym:
        w = [_r(rng, -1.0, 1.0) for _ in range(n)]
        const = round(1 - sum(wi * xi for wi, xi in zip(w, x0)), 4)
        ineq.append(add({mono(n): const}, {mono(n, (i, 1)): w[i] for i in range(n)}))
    eq = []
    if with_eq:
        rest = {mono(n, (i, 2)): _r(rng, 0.5, 2.0) for i in range(1, n)}
        if sym:
            h = add({mono(n, (0, 2)): 1}, rest)
        else:
            rest = add(rest, {mono(n, (i, 1)): _r(rng, -1.0, 1.0) for i in range(1, n)})
            h = add({mono(n, (0, 1)): 1}, rest)
        h = add(h, {mono(n): -round(evaluate(h, x0), 6)})
        eq.append(h)
    return {"n": n, "obj": obj, "ineq": ineq, "eq": eq, "x0": x0, "margin": 1.0,
            "sym": sym, "with_eq": with_eq}


def dense_instance(rng: random.Random) -> dict:
    """An n=6 quartic over the ball |x|^2 <= 4.

    The top form is indefinite by construction (the x1^2 x2^2 coefficient
    outweighs x1^4 + x2^4 at x1 = x2), so coercive-check is inconclusive at
    both orders and solves the k=3 program.
    """
    n = 6
    obj = {mono(n, (i, 4)): _r(rng, 0.5, 1.5) for i in range(n)}
    obj[mono(n, (0, 2), (1, 2))] = -round(obj[mono(n, (0, 4))] + obj[mono(n, (1, 4))] + 1, 2)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != (0, 1)]
    for i, j in rng.sample(pairs, 6):
        obj[mono(n, (i, 2), (j, 2))] = _r(rng, -1.0, 1.0)
    for _ in range(4):
        i, j, l = rng.sample(range(n), 3)
        obj = add(obj, {mono(n, (i, 2), (j, 1), (l, 1)): _r(rng, -1.0, 1.0)})
    for _ in range(6):
        i, j, l = rng.sample(range(n), 3)
        obj = add(obj, {mono(n, (i, 1), (j, 1), (l, 1)): _r(rng, -1.0, 1.0)})
    for i in range(n):
        obj = add(obj, {mono(n, (i, 2)): _r(rng, -1.0, 1.0), mono(n, (i, 1)): _r(rng, -1.0, 1.0)})
    ineq = [add({mono(n): 4}, {mono(n, (i, 2)): -1 for i in range(n)})]
    return {"n": n, "obj": obj, "ineq": ineq, "eq": [], "x0": [0.0] * n, "margin": 1.0,
            "sym": False, "with_eq": False}


def relabel(inst: dict, rng: random.Random) -> dict:
    """inst with its variables permuted and sign-flipped at random: another
    input file for the same SDP sizes and the same values."""
    n = inst["n"]
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]

    def move(p: dict) -> dict:  # q(y) = p(x) with y_i = s_perm[i] * x_perm[i]
        return {tuple(m[j] for j in perm): c * math.prod(s ** e for s, e in zip(signs, m))
                for m, c in p.items()}

    return {**inst, "obj": move(inst["obj"]), "ineq": [move(g) for g in inst["ineq"]],
            "eq": [move(h) for h in inst["eq"]],
            "x0": [signs[j] * inst["x0"][j] for j in perm]}


def feasible_points(inst: dict, rng: random.Random, count: int, tries: int = 400) -> list[list[float]]:
    """Seeded points with g >= 0, h = 0 (solved for x1) and f <= c, drawn
    around x0 (x0 first) or, without x0, around the origin."""
    x0 = inst.get("x0")
    center = [0.0] * inst["n"] if x0 is None else [float(v) for v in x0]
    c = resolved_c(inst)
    points = [] if x0 is None else [center]
    for _ in range(tries):
        if len(points) >= count:
            break
        scale = rng.choice((0.1, 0.5, 1.5))
        x = [v + rng.gauss(0.0, scale) for v in center]
        if inst["eq"]:
            h = inst["eq"][0]
            rest = {m: cv for m, cv in h.items() if m[0] == 0}
            lead = [m for m in h if m[0] > 0][0]
            val = -evaluate(rest, x)
            if lead[0] == 2:
                if val < 0:
                    continue
                x[0] = math.copysign(math.sqrt(val), rng.choice((-1, 1)))
            else:
                x[0] = val
        if all(evaluate(g, x) >= 0 for g in inst["ineq"]) and evaluate(inst["obj"], x) <= c:
            points.append(x)
    return points


# ---------------------------------------------------------------------------
# certificates for verify-replay
# ---------------------------------------------------------------------------

def monomials(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of degree <= max_degree, graded."""
    out = []
    for d in range(max_degree + 1):
        for combo in combinations_with_replacement(range(n), d):
            out.append(mono(n, *((i, 1) for i in combo)))
    return out


def _expand(gram, basis: list[tuple[int, ...]]) -> dict:
    """v' G v as a coefficient dict; exact when gram is (int matrix, denominator)."""
    B = np.array(basis, dtype=np.int64)
    radix = int(B.max(initial=0)) * 2 + 1
    keys = ((B[:, None, :] + B[None, :, :]) * radix ** np.arange(B.shape[1])).sum(axis=2).ravel()
    uniq, inv = np.unique(keys, return_inverse=True)
    exps = [tuple(int(u) // radix ** i % radix for i in range(B.shape[1])) for u in uniq]
    if isinstance(gram, tuple):
        ints, den = gram
        sums = np.bincount(inv, weights=ints.ravel().astype(float))
        return {m: Fraction(int(round(s)), den) for m, s in zip(exps, sums) if s != 0}
    sums = np.bincount(inv, weights=gram.ravel())
    return {m: float(s) for m, s in zip(exps, sums) if s != 0}


def _psd(rng: np.random.Generator, d: int, exact: bool):
    if exact:
        M = rng.integers(-2, 3, size=(d, d))
        return M @ M.T + d * np.eye(d, dtype=np.int64), int(rng.integers(1, 5)) ** 2
    L = rng.standard_normal((d, d))
    return L @ L.T / d + 0.1 * np.eye(d)


def _gram_payload(gram) -> list[list]:
    if isinstance(gram, tuple):
        ints, den = gram
        return [[f"{int(v)}/{den}" for v in row] for row in ints]
    return gram.tolist()


def replay_case(seed: int, n: int, k: int, exact: bool, corrupt: str | None) -> tuple[dict, dict]:
    """A hierarchy certificate and the problem it certifies, built without a solver.

    Random PSD Grams sigma_0 (degree <= k) and sigma_1 (degree <= k-1, on the
    ball g = 4 - |x|^2) with a constant weight w on c - f; the objective is
    defined from the identity

        sigma_0 + sigma_1 g + w (c - f) = f - lambda,

    so the certificate is valid by construction.  corrupt = "indefinite"
    makes one sigma_0 diagonal entry negative (the identity still holds);
    corrupt = "coefficient" perturbs one objective coefficient in the problem
    file far beyond the verification tolerance.  Returns (instance, payload).
    """
    rng = np.random.default_rng(seed)
    basis0, basis1 = monomials(n, k), monomials(n, k - 1)
    gram0, gram1 = _psd(rng, len(basis0), exact), _psd(rng, len(basis1), exact)
    if corrupt == "indefinite":
        i = int(rng.integers(len(basis0)))
        if exact:
            gram0[0][i, i] = -gram0[0][i, i]
        else:
            gram0[i, i] = -gram0[i, i]
    one = Fraction(1) if exact else 1.0
    w, lam, c = one, one * int(rng.integers(-5, 6)), one * int(rng.integers(5, 20))
    ball = add({mono(n): 4 * one}, {mono(n, (i, 2)): -one for i in range(n)})
    rhs = add(add(_expand(gram0, basis0), mul(_expand(gram1, basis1), ball)), {mono(n): w * c + lam})
    obj = {m: cv / (1 + w) for m, cv in rhs.items()}
    inst = {"n": n, "obj": obj, "ineq": [ball], "eq": [], "c": c}
    if corrupt == "coefficient":
        m = sorted(obj)[int(rng.integers(len(obj)))]
        inst["obj"] = add(obj, {m: (1 + sum(abs(v) for v in obj.values())) / 1000})
    def weight(tag, index, basis, gram):
        return {"tag": tag, "index": index, "basis": [list(b) for b in basis], "gram": _gram_payload(gram)}
    payload = {
        "schema": "popnc.certificate/1", "family": "hierarchy", "num_vars": n, "order": k,
        "lambda": _num(lam) if exact else lam, "lambda_sign": 1, "residual": 0.0,
        "sos_weights": [
            weight("sigma0", None, basis0, gram0),
            weight("ineq", 0, basis1, gram1),
            weight("cf", 1, [mono(n)], (np.array([[1]]), 1) if exact else np.array([[w]])),
        ],
        "eq_multipliers": [],
    }
    return inst, payload
