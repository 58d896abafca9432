"""Problem-file parsing, polynomial expression parsing and report emission.

Problem files are line oriented (UTF-8)::

    # comment
    vars: x1 x2          (required, first non-comment line)
    obj: x1^2 + 1        (required)
    ineq: 1 - x2^2       (zero or more; bare expression means >= 0)
    ineq: x2^2 - 1/4 >= 0
    eq: x1 + x2          (zero or more; means = 0)
    c: 2                 (exactly one of c / x0)
    x0: 0 -1
    margin: 1            (optional, used when c is derived from x0)

Expressions are sums of terms joined by ``+``/``-``.  A term is an optional
numeric coefficient (decimal or rational ``p/q``) followed by variable-power
factors joined by explicit ``*``; powers use ``^`` with a non-negative integer
exponent.  Juxtaposition of variable factors without ``*`` is rejected.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Any, Sequence

from .polynomial import Coeff, Monomial, Polynomial


class ParseError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


class ProblemFormatError(ValueError):
    """Structurally invalid problem document."""


# ---------------------------------------------------------------------------
# expression tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^/])"
)


@dataclass
class _Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    col: int


def _tokenize(text: str, line: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos + 1)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


class _ExprParser:
    def __init__(self, text: str, variables: Sequence[str], rational: bool, line: int = 1):
        self.tokens = _tokenize(text, line)
        self.idx = 0
        self.line = line
        self.var_index = {name: i for i, name in enumerate(variables)}
        self.n = len(variables)
        self.rational = rational

    def _peek(self) -> _Token:
        return self.tokens[self.idx]

    def _take(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def _error(self, msg: str, tok: _Token) -> ParseError:
        return ParseError(msg, self.line, tok.col)

    def _number(self, text: str, tok: _Token) -> Coeff:
        try:
            if self.rational:
                return Fraction(Decimal(text))
            return float(text)
        except (InvalidOperation, ValueError):
            raise self._error(f"malformed number {text!r}", tok)

    def parse(self) -> Polynomial:
        terms: dict[Monomial, Coeff] = {}
        sign = 1
        tok = self._peek()
        if tok.kind == "op" and tok.text in "+-":
            self._take()
            sign = -1 if tok.text == "-" else 1
        elif tok.kind == "end":
            raise self._error("empty expression", tok)
        self._term(terms, sign)
        while True:
            tok = self._peek()
            if tok.kind == "end":
                break
            if tok.kind == "op" and tok.text in "+-":
                self._take()
                sign = -1 if tok.text == "-" else 1
                self._term(terms, sign)
            else:
                raise self._error(f"expected '+' or '-', got {tok.text!r}", tok)
        return Polynomial(self.n, terms)

    def _term(self, terms: dict[Monomial, Coeff], sign: int) -> None:
        coeff: Coeff = Fraction(1) if self.rational else 1.0
        exponents = [0] * self.n
        tok = self._peek()
        saw_factor = False

        if tok.kind == "num":
            self._take()
            coeff = self._number(tok.text, tok)
            saw_factor = True
            nxt = self._peek()
            if nxt.kind == "op" and nxt.text == "/":
                self._take()
                den_tok = self._take()
                if den_tok.kind != "num":
                    raise self._error("expected a number after '/'", den_tok)
                den = self._number(den_tok.text, den_tok)
                if den == 0:
                    raise self._error("division by zero in coefficient", den_tok)
                coeff = coeff / den
                nxt = self._peek()
            # optional '*' between leading coefficient and the first variable
            if nxt.kind == "op" and nxt.text == "*":
                self._take()
                self._var_factor(exponents)
                self._more_factors(exponents)
            elif nxt.kind == "ident":
                self._var_factor(exponents)
                self._more_factors(exponents)
        elif tok.kind == "ident":
            self._var_factor(exponents)
            self._more_factors(exponents)
            saw_factor = True
        else:
            raise self._error(f"expected a number or variable, got {tok.text!r}", tok)

        if not saw_factor:
            raise self._error("empty term", tok)
        mono = tuple(exponents)
        terms[mono] = terms.get(mono, 0) + sign * coeff

    def _more_factors(self, exponents: list[int]) -> None:
        while True:
            tok = self._peek()
            if tok.kind == "op" and tok.text == "*":
                self._take()
                self._var_factor(exponents)
            elif tok.kind in ("ident", "num"):
                raise self._error(
                    "implicit multiplication is not allowed; use '*' between factors", tok
                )
            else:
                return

    def _var_factor(self, exponents: list[int]) -> None:
        tok = self._take()
        if tok.kind != "ident":
            raise self._error(f"expected a variable name, got {tok.text!r}", tok)
        if tok.text not in self.var_index:
            raise self._error(f"unknown variable {tok.text!r}", tok)
        idx = self.var_index[tok.text]
        power = 1
        nxt = self._peek()
        if nxt.kind == "op" and nxt.text == "^":
            self._take()
            exp_tok = self._take()
            if exp_tok.kind == "op" and exp_tok.text == "-":
                raise self._error("negative exponents are not allowed", exp_tok)
            if exp_tok.kind != "num" or not re.fullmatch(r"\d+", exp_tok.text):
                raise self._error(
                    f"exponent must be a non-negative integer, got {exp_tok.text!r}", exp_tok
                )
            power = int(exp_tok.text)
        exponents[idx] += power


def parse_polynomial(
    text: str, variables: Sequence[str], rational: bool = False, line: int = 1
) -> Polynomial:
    """Parse an expression over the named variables into a Polynomial.

    With ``rational=True`` every literal (including decimals) is stored as an
    exact Fraction.
    """
    if not variables:
        raise ProblemFormatError("variable list must not be empty")
    return _ExprParser(text, variables, rational, line).parse()


# ---------------------------------------------------------------------------
# canonical printer
# ---------------------------------------------------------------------------


def _format_coeff(coeff: Coeff) -> str:
    if isinstance(coeff, Fraction):
        if coeff.denominator == 1:
            return str(coeff.numerator)
        return f"{coeff.numerator}/{coeff.denominator}"
    if isinstance(coeff, int):
        return str(coeff)
    return repr(float(coeff))


def format_polynomial(p: Polynomial, variables: Sequence[str] | None = None) -> str:
    """Canonical printable form; ``parse_polynomial`` round-trips it exactly."""
    names = list(variables) if variables is not None else [f"x{i+1}" for i in range(p.num_vars)]
    if len(names) != p.num_vars:
        raise ValueError("variable name list length does not match num_vars")
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for mono, coeff in p.sorted_terms():
        neg = coeff < 0
        mag = -coeff if neg else coeff
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = _format_coeff(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = _format_coeff(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# problem documents
# ---------------------------------------------------------------------------

DEFAULT_FEAS_TOL = 1e-8


@dataclass
class PopProblem:
    """A polynomial minimization instance over {g_j >= 0, h_l = 0}.

    Exactly one of ``c`` (explicit level bound) or ``x0`` (feasible point from
    which c := f(x0) + margin is derived) is set.
    """

    variables: list[str]
    objective: Polynomial
    inequalities: list[Polynomial] = field(default_factory=list)
    equalities: list[Polynomial] = field(default_factory=list)
    c: Coeff | None = None
    x0: list[Coeff] | None = None
    margin: Coeff = 1

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def resolved_c(self) -> Coeff:
        """The bound c; derived from x0 as f(x0) + margin when not explicit."""
        if self.c is not None:
            return self.c
        if self.x0 is None:
            raise ProblemFormatError("neither c nor x0 is available")
        return self._at_x0(self.objective, "the objective") + self.margin

    def _at_x0(self, p: Polynomial, name: str) -> Coeff:
        """p(x0); an input error when it does not fit in a float."""
        try:
            value = p.evaluate(self.x0)
            finite = math.isfinite(float(value))
        except OverflowError:
            finite = False
        if not finite:
            raise ProblemFormatError(f"x0 is out of range: {name} at x0 does not fit in a float")
        return value

    def validate(self, feas_tol: float = DEFAULT_FEAS_TOL) -> None:
        n = self.num_vars
        if n == 0:
            raise ProblemFormatError("empty variable list")
        for p in [self.objective, *self.inequalities, *self.equalities]:
            if p.num_vars != n:
                raise ProblemFormatError("polynomial variable count does not match problem")
        if (self.c is None) == (self.x0 is None):
            raise ProblemFormatError("exactly one of c or x0 must be given")
        fields = [("objective", self.objective.terms.values()), ("c", [self.c]),
                  ("x0", self.x0 or []), ("margin", [self.margin])]
        fields += [(f"inequality {j + 1}", g.terms.values()) for j, g in enumerate(self.inequalities)]
        fields += [(f"equality {l + 1}", h.terms.values()) for l, h in enumerate(self.equalities)]
        for name, values in fields:
            try:
                finite = all(math.isfinite(float(v)) for v in values if v is not None)
            except OverflowError:  # a rational too large for a float
                finite = False
            if not finite:
                raise ProblemFormatError(f"{name} holds a number that is not finite")
        if self.margin <= 0:
            raise ProblemFormatError("margin must be > 0")
        if self.x0 is not None:
            if len(self.x0) != n:
                raise ProblemFormatError(f"x0 has {len(self.x0)} entries, expected {n}")
            for j, g in enumerate(self.inequalities):
                value = float(self._at_x0(g, f"inequality {j + 1}"))
                if value < -feas_tol:
                    raise ProblemFormatError(f"x0 violates inequality {j + 1}: g(x0) = {value:.6g}")
            for l, h in enumerate(self.equalities):
                value = float(self._at_x0(h, f"equality {l + 1}"))
                if abs(value) > feas_tol:
                    raise ProblemFormatError(f"x0 violates equality {l + 1}: h(x0) = {value:.6g}")
            self.resolved_c()

    def to_payload(self) -> dict[str, Any]:
        return {
            "variables": list(self.variables),
            "objective": format_polynomial(self.objective, self.variables),
            "inequalities": [format_polynomial(g, self.variables) for g in self.inequalities],
            "equalities": [format_polynomial(h, self.variables) for h in self.equalities],
            "c": _json_number(self.c),
            "x0": None if self.x0 is None else [_json_number(v) for v in self.x0],
            "margin": _json_number(self.margin),
            "resolved_c": _json_number(self.resolved_c()),
        }


_INEQ_SUFFIX_RE = re.compile(r"^(?P<body>.*?)(?P<rel>>=|<=)\s*0\s*$")


def _parse_number(text: str, rational: bool, line: int) -> Coeff:
    text = text.strip()
    m = re.fullmatch(r"(?P<num>[-+]?[\d.]+(?:[eE][+-]?\d+)?)(?:\s*/\s*(?P<den>\d+))?", text)
    if m is None:
        raise ProblemFormatError(f"line {line}: malformed number {text!r}")
    try:
        num = Fraction(Decimal(m.group("num"))) if rational else float(m.group("num"))
    except (InvalidOperation, ValueError):
        raise ProblemFormatError(f"line {line}: malformed number {text!r}")
    if m.group("den"):
        den = int(m.group("den"))
        if den == 0:
            raise ProblemFormatError(f"line {line}: division by zero in {text!r}")
        num = num / den if rational else num / float(den)
    return num


def parse_problem(document: str, rational: bool = False) -> PopProblem:
    """Parse and fully validate a problem document."""
    variables: list[str] | None = None
    objective: Polynomial | None = None
    inequalities: list[Polynomial] = []
    equalities: list[Polynomial] = []
    c: Coeff | None = None
    x0: list[Coeff] | None = None
    margin: Coeff | None = None

    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ProblemFormatError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()

        if variables is None:
            if key != "vars":
                raise ProblemFormatError(
                    f"line {lineno}: first directive must be 'vars:', got {key!r}"
                )
            names = value.split()
            if not names:
                raise ProblemFormatError(f"line {lineno}: empty variable list")
            if len(set(names)) != len(names):
                raise ProblemFormatError(f"line {lineno}: duplicate variable names")
            for name in names:
                if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                    raise ProblemFormatError(f"line {lineno}: invalid variable name {name!r}")
            variables = names
            continue

        if key == "vars":
            raise ProblemFormatError(f"line {lineno}: duplicate 'vars:' directive")
        if key == "obj":
            if objective is not None:
                raise ProblemFormatError(f"line {lineno}: duplicate 'obj:' directive")
            objective = parse_polynomial(value, variables, rational, line=lineno)
        elif key == "ineq":
            m = _INEQ_SUFFIX_RE.match(value)
            if m:
                body, rel = m.group("body"), m.group("rel")
            else:
                body, rel = value, ">="
            g = parse_polynomial(body, variables, rational, line=lineno)
            # g <= 0 is normalized to -g >= 0
            inequalities.append(-g if rel == "<=" else g)
        elif key == "eq":
            equalities.append(parse_polynomial(value, variables, rational, line=lineno))
        elif key == "c":
            if c is not None:
                raise ProblemFormatError(f"line {lineno}: duplicate 'c:' directive")
            c = _parse_number(value, rational, lineno)
        elif key == "x0":
            if x0 is not None:
                raise ProblemFormatError(f"line {lineno}: duplicate 'x0:' directive")
            parts = value.replace(",", " ").split()
            if not parts:
                raise ProblemFormatError(f"line {lineno}: empty x0")
            x0 = [_parse_number(p, rational, lineno) for p in parts]
        elif key == "margin":
            margin = _parse_number(value, rational, lineno)
        else:
            raise ProblemFormatError(f"line {lineno}: unknown directive {key!r}")

    if variables is None:
        raise ProblemFormatError("missing 'vars:' directive")
    if objective is None:
        raise ProblemFormatError("missing objective ('obj:' directive)")

    problem = PopProblem(
        variables=variables,
        objective=objective,
        inequalities=inequalities,
        equalities=equalities,
        c=c,
        x0=x0,
        margin=1 if margin is None else margin,
    )
    problem.validate()
    return problem


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _json_number(value: Any) -> Any:
    """A Fraction as the string "p/q"; any other value unchanged."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def _json_default(obj: Any) -> str:
    if isinstance(obj, Fraction):
        return _json_number(obj)
    raise TypeError(f"{type(obj).__name__} is not part of a report payload")


def emit_report(payload: Any) -> str:
    """Serialize a payload tree (dicts with string keys, lists, strings,
    numbers, booleans and None) deterministically as JSON; a Fraction is
    written as the string "p/q".  Raises TypeError for any other value."""
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
