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

import numpy as np

from .polynomial import LITERAL, Coeff, Monomial, NumberError, Polynomial, read_number, write_number
from .termarrays import FLOAT


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

# One term per match: its sign, its coefficient (a literal or p/q) and its
# variable factors joined by '*', with the blanks around each; a term with a
# coefficient may leave out the '*' before its first factor.  Every part is
# optional, so the first match reads each literal and name whole, as the
# tokenizer does; where the term ends is checked after the match.
_FACTOR = r"[A-Za-z_][A-Za-z_0-9]*(?:\s*\^\s*\d+)?"
_TERM_RE = re.compile(
    rf"\s*(?P<sign>[-+]?)\s*"
    rf"(?:(?P<coeff>{LITERAL}(?:\s*/\s*{LITERAL})?)(?:\s*\*(?=\s*[A-Za-z_]))?\s*)?"
    rf"(?P<factors>{_FACTOR}(?:\s*\*\s*{_FACTOR})*)?\s*"
)
_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)\s*(?:\^\s*(\d+))?")

# one token per match, its leading whitespace skipped; ``bad`` is any other character
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<num>{LITERAL})"
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
    index = {name: i for i, name in enumerate(variables)}
    try:
        poly = _read_terms(text, index, len(variables), rational)
        return _walk_tokens(text, index, len(variables), rational, line) if poly is None else poly
    except ParseError:
        raise
    except ValueError as exc:  # Polynomial refuses an exponent or a total degree of 2^63 or more
        raise ParseError(str(exc), line, 1) from None


def _read_terms(text: str, index: dict[str, int], n: int, rational: bool) -> Polynomial | None:
    """The polynomial of ``text``, read with one match per term; None for an
    expression it does not read, which the token walk then refuses."""
    terms: dict[Monomial, Coeff] = {}
    one: Coeff = Fraction(1) if rational else 1.0
    pos = 0
    while True:
        m = _TERM_RE.match(text, pos)
        coeff, factors = m["coeff"], m["factors"]
        if coeff is None and factors is None:  # an empty term
            return None
        if coeff is None:
            coeff = one
        else:
            try:
                coeff = read_number(coeff, rational)
            except NumberError:
                return None
        exponents = [0] * n
        if factors is not None:
            for name, power in _FACTOR_RE.findall(factors):
                i = index.get(name)
                if i is None:
                    return None
                try:
                    exponents[i] += int(power) if power else 1
                except ValueError:  # more digits than int() converts
                    return None
        mono = tuple(exponents)
        if m["sign"] == "-":
            coeff = -coeff
        old = terms.get(mono)
        terms[mono] = coeff if old is None else old + coeff
        pos = m.end()
        if pos == len(text):
            return Polynomial._from_checked(n, terms)
        if text[pos] not in "+-":
            return None


def _walk_tokens(text: str, index: dict[str, int], n: int, rational: bool, line: int) -> Polynomial:
    """The polynomial of ``text``, read token by token: the reader that words
    every ParseError, a character no token starts with first."""
    tokens = []  # (kind, text, 1-based column); kind is "num", "ident", "op" or "end"
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", line, m.start(kind) + 1)
        tokens.append((kind, m[kind], m.start(kind) + 1))
    tokens.append(("end", "", len(text) + 1))

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
                return Polynomial(n, terms)
            raise ParseError("empty expression", line, col)
        elif pos:
            raise ParseError(f"expected '+' or '-', got {tok!r}", line, col)
        # a term: number ['/' number] [['*'] factors], or factors; factors are
        # variables with optional '^' exponents, joined by '*'
        coeff: Coeff = Fraction(1) if rational else 1.0
        exponents = [0] * n
        factors = True
        if kind == "num":  # the literal, or the quotient up to the next one, read as one number
            last = pos + 2 if tokens[pos + 1][1] == "/" else pos
            if tokens[last][0] != "num":
                raise ParseError("expected a number after '/'", line, tokens[last][2])
            try:
                coeff = read_number(text[col - 1:tokens[last][2] - 1 + len(tokens[last][1])], rational)
            except NumberError as exc:
                raise ParseError(str(exc), line, col + exc.at) from None
            pos = last + 1
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
    if isinstance(coeff, Fraction) and coeff.denominator != 1:
        return write_number(coeff)
    return str(int(coeff)) if isinstance(coeff, (int, Fraction)) else repr(float(coeff))


def format_polynomial(p: Polynomial, variables: Sequence[str] | None = None) -> str:
    """Canonical printable form; ``parse_polynomial`` round-trips it exactly.

    The terms in the polynomial's order, ascending graded-lex order, each
    its sign ("-" or nothing first, "- " or "+ " after) and its body: the
    magnitude of its coefficient, then "*" and its factors ``name`` or
    ``name^e``, joined by "*"; a magnitude of 1 before factors is left out.
    Built on the exponent arrays, with a Python loop per variable column,
    not per term: a column's factor strings come from one table of the
    distinct exponents, the float magnitudes are written by one
    ``float.__repr__`` pass, and only an exact magnitude by ``_format_coeff``."""
    names = list(variables) if variables is not None else [f"x{i+1}" for i in range(p.num_vars)]
    if len(names) != p.num_vars:
        raise ValueError("variable name list length does not match num_vars")
    if p.is_zero():
        return "0"
    rows, c = p.rows, p.coeffs
    # the factors of each term joined by "*", column by column: each used
    # column indexes one table of the distinct exponents, whose second row
    # carries the "*" of a factor after the term's first
    used = rows.any(axis=0).nonzero()[0]
    powers, inverse = np.unique(rows[:, used], return_inverse=True)
    inverse, powers = inverse.reshape(len(rows), len(used)), powers.tolist()
    factors = np.full(len(rows), "", dtype=object)
    started = np.zeros(len(rows), dtype=bool)
    for k, j in enumerate(used.tolist()):
        name = names[j]
        bare = ["" if e == 0 else name if e == 1 else f"{name}^{e}" for e in powers]
        table = np.array([bare, ["*" + f if f else f for f in bare]], dtype=object)
        factors += table[started.view(np.int8), inverse[:, k]]
        started |= rows[:, j] > 0
    with np.errstate(invalid="ignore"):  # a NaN is neither negative nor 1
        neg = c.fl < 0
        magnitude = np.abs(c.fl)
        unit = magnitude == 1
    shown = np.array(list(map(float.__repr__, magnitude.tolist())), dtype=object)
    if c.num is not None:
        exact = (c.kind != FLOAT).nonzero()[0]
        values = c.values()
        for i in exact.tolist():
            shown[i] = _format_coeff(abs(values[i]))
        num = c.num[exact]
        neg[exact] = num < 0
        unit[exact] = abs(num) == c.den
    body = np.where(started, np.where(unit, factors, shown + "*" + factors), shown)
    terms = np.where(neg, "- ", "+ ").astype(object) + body
    terms[0] = ("-" if neg[0] else "") + body[0]
    return " ".join(terms.tolist())


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
        fields = [("objective", self.objective), ("c", [self.c]), ("x0", self.x0 or []),
                  ("margin", [self.margin])]
        fields += [(f"inequality {j + 1}", g) for j, g in enumerate(self.inequalities)]
        fields += [(f"equality {l + 1}", h) for l, h in enumerate(self.equalities)]
        for name, values in fields:
            try:  # a polynomial's coefficients as one float array, exact ones as num / den
                floats = (values.coeffs.floats() if isinstance(values, Polynomial)
                          else [float(v) for v in values if v is not None])
                finite = bool(np.isfinite(floats).all())
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
            "c": self.c,
            "x0": None if self.x0 is None else list(self.x0),
            "margin": self.margin,
            "resolved_c": self.resolved_c(),
        }


_INEQ_SUFFIX_RE = re.compile(r"^(?P<body>.*?)(?P<rel>>=|<=)\s*0\s*$")


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
                c = read_number(value, rational)
            elif key == "x0":
                parts = value.replace(",", " ").split()
                if not parts:
                    raise ProblemFormatError(f"line {lineno}: empty x0")
                x0 = [read_number(p, rational) for p in parts]
            elif key == "margin":
                margin = read_number(value, rational)
            else:
                raise ProblemFormatError(f"line {lineno}: unknown directive {key!r}")
        except ParseError as err:
            raise ParseError(err.reason, lineno, offset + err.col) from None
        except NumberError as exc:  # a number of c:, x0: or margin:
            raise ProblemFormatError(f"line {lineno}: {exc}") from None

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


def _json_default(obj: Any) -> str:
    if isinstance(obj, Fraction):
        return write_number(obj)
    raise TypeError(f"{type(obj).__name__} is not part of a report payload")


def emit_report(payload: Any) -> str:
    """Serialize a payload tree (dicts with string keys, lists, strings,
    numbers, booleans and None) deterministically as JSON; a Fraction is
    written as the string "p/q".  Raises TypeError for any other value."""
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
