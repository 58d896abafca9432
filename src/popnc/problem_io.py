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
from fractions import Fraction
from typing import Any, Sequence

from .polynomial import Coeff, Monomial, Polynomial, exact_decimal


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
# expression parser
# ---------------------------------------------------------------------------

# one token per match, its leading whitespace skipped; ``bad`` is any other character
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^/])"
    r"|(?P<bad>\S))"
)


def parse_polynomial(
    text: str, variables: Sequence[str], rational: bool = False, line: int = 1
) -> Polynomial:
    """Parse an expression over the named variables into a Polynomial.

    With ``rational=True`` every literal (including decimals) is stored as an
    exact Fraction.  Error columns count from the start of ``text``.
    """
    if not variables:
        raise ProblemFormatError("variable list must not be empty")
    tokens = []  # (kind, text, 1-based column); kind is "num", "ident", "op" or "end"
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", line, m.start(kind) + 1)
        tokens.append((kind, m[kind], m.start(kind) + 1))
    tokens.append(("end", "", len(text) + 1))
    index = {name: i for i, name in enumerate(variables)}

    def number(tok: tuple[str, str, int]) -> Coeff:
        try:
            return exact_decimal(tok[1]) if rational else float(tok[1])
        except ValueError as exc:
            raise ParseError(str(exc), line, tok[2]) from None

    terms: dict[Monomial, Coeff] = {}
    pos, sign = 0, 1
    while True:
        kind, tok, col = tokens[pos]
        if tok in ("+", "-"):  # optional before the first term, required before the others
            sign = -1 if tok == "-" else 1
            pos += 1
            kind, tok, col = tokens[pos]
        elif kind == "end":
            if pos:
                return Polynomial(len(variables), terms)
            raise ParseError("empty expression", line, col)
        elif pos:
            raise ParseError(f"expected '+' or '-', got {tok!r}", line, col)
        # a term: number ['/' number] [['*'] factors], or factors; factors are
        # variables with optional '^' exponents, joined by '*'
        coeff: Coeff = Fraction(1) if rational else 1.0
        exponents = [0] * len(variables)
        factors = True
        if kind == "num":
            coeff = number(tokens[pos])
            pos += 1
            kind, tok, col = tokens[pos]
            if tok == "/":
                den_tok = tokens[pos + 1]
                if den_tok[0] != "num":
                    raise ParseError("expected a number after '/'", line, den_tok[2])
                den = number(den_tok)
                if den == 0:
                    raise ParseError("division by zero in coefficient", line, den_tok[2])
                coeff = coeff / den
                pos += 2
                kind, tok, col = tokens[pos]
            if tok == "*":
                pos += 1
            else:
                factors = kind == "ident"
        elif kind != "ident":
            raise ParseError(f"expected a number or variable, got {tok!r}", line, col)
        while factors:
            kind, name, col = tokens[pos]
            if kind != "ident":
                raise ParseError(f"expected a variable name, got {name!r}", line, col)
            if name not in index:
                raise ParseError(f"unknown variable {name!r}", line, col)
            power = 1
            if tokens[pos + 1][1] == "^":
                kind, tok, col = tokens[pos + 2]
                if tok == "-":
                    raise ParseError("negative exponents are not allowed", line, col)
                if kind != "num" or not tok.isdecimal():
                    raise ParseError(f"exponent must be a non-negative integer, got {tok!r}", line, col)
                try:
                    power = int(tok)
                except ValueError:  # more digits than int() converts
                    raise ParseError(f"exponent of {len(tok)} digits is too large", line, col) from None
                pos += 2
            exponents[index[name]] += power
            pos += 1
            kind, tok, col = tokens[pos]
            if tok == "*":
                pos += 1
            elif kind in ("ident", "num"):
                raise ParseError("implicit multiplication is not allowed; use '*' between factors",
                                 line, col)
            else:
                factors = False
        mono = tuple(exponents)
        terms[mono] = terms.get(mono, 0) + sign * coeff


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

# how far x0 may violate an inequality or an equality
FEAS_TOL = 1e-8


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

    def validate(self) -> None:
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
                if value < -FEAS_TOL:
                    raise ProblemFormatError(f"x0 violates inequality {j + 1}: g(x0) = {value:.6g}")
            for l, h in enumerate(self.equalities):
                value = float(self._at_x0(h, f"equality {l + 1}"))
                if abs(value) > FEAS_TOL:
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
    num_text = m.group("num")
    try:
        num = exact_decimal(num_text) if rational else float(num_text)
    except ValueError as exc:  # float() refuses only what exact_decimal calls malformed
        reason = exc if rational else f"malformed number {num_text!r}"
        raise ProblemFormatError(f"line {line}: {reason}") from None
    den_text = m.group("den")
    if den_text:
        try:
            den = int(den_text)
        except ValueError:  # more digits than int() converts
            raise ProblemFormatError(f"line {line}: denominator of {len(den_text)} digits is too large") from None
        if den == 0:
            raise ProblemFormatError(f"line {line}: division by zero in {text!r}")
        try:
            float_den = float(den)
        except OverflowError:  # above 1.8e308; refused in both modes, like exact_decimal's range
            raise ProblemFormatError(
                f"line {line}: denominator of {len(den_text)} digits lies beyond the float range") from None
        num = num / den if rational else num / float_den
    return num


def parse_problem(document: str, rational: bool = False) -> PopProblem:
    """Parse and fully validate a problem document.

    A ParseError's column counts from the start of the file line."""
    variables: list[str] | None = None
    objective: Polynomial | None = None
    inequalities: list[Polynomial] = []
    equalities: list[Polynomial] = []
    c: Coeff | None = None
    x0: list[Coeff] | None = None
    margin: Coeff = 1
    seen: set[str] = set()  # the single-valued directives read so far

    for lineno, raw in enumerate(document.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ProblemFormatError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        offset = raw.index(":") + 1 + len(value) - len(value.lstrip())  # of value in raw
        value = value.strip()
        if key in seen:
            raise ProblemFormatError(f"line {lineno}: duplicate '{key}:' directive")
        if key not in ("ineq", "eq"):
            seen.add(key)

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

        try:
            if key == "obj":
                objective = parse_polynomial(value, variables, rational, line=lineno)
            elif key == "ineq":
                m = _INEQ_SUFFIX_RE.match(value)
                g = parse_polynomial(m["body"] if m else value, variables, rational, line=lineno)
                # g <= 0 is normalized to -g >= 0
                inequalities.append(-g if m and m["rel"] == "<=" else g)
            elif key == "eq":
                equalities.append(parse_polynomial(value, variables, rational, line=lineno))
            elif key == "c":
                c = _parse_number(value, rational, lineno)
            elif key == "x0":
                parts = value.replace(",", " ").split()
                if not parts:
                    raise ProblemFormatError(f"line {lineno}: empty x0")
                x0 = [_parse_number(p, rational, lineno) for p in parts]
            elif key == "margin":
                margin = _parse_number(value, rational, lineno)
            else:
                raise ProblemFormatError(f"line {lineno}: unknown directive {key!r}")
        except ParseError as err:
            raise ParseError(err.reason, lineno, offset + err.col) from None

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
        margin=margin,
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
