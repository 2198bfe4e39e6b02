"""Expression trees for node update rules.

An update rule is a tree over a closed vocabulary (tanh, sech, exp, sin,
cos, abs, sign, negation and the four arithmetic operators) whose leaves
are finite constants and references to node values, possibly delayed:
``x2[-3]`` is the value of node ``x2`` three steps in the past.  The
vocabulary is the table ``OPERATORS``: one row per function or operator
with its point, interval and numpy kernels and its derivative rule.

The module provides parsing, printing, symbolic differentiation, exact
point evaluation and interval evaluation.  Interval results are widened
outward by one ulp per operation so they remain sound upper estimates
without directed hardware rounding; bounded primitives are clamped to
their mathematical ranges afterwards (tanh never exceeds [-1, 1]).
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ParseError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Call",
    "BinOp",
    "Interval",
    "Operator",
    "OPERATORS",
    "parse_expression",
    "to_text",
    "differentiate",
    "eval_point",
    "eval_interval",
    "normalize",
    "references",
    "substitute",
]

class Expr:
    """Base class for expression nodes.  Instances are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ValueError(f"constants must be finite, got {self.value!r}")


@dataclass(frozen=True)
class Var(Expr):
    node: str
    delay: int = 0

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError(f"negative delay {self.delay} on {self.node}")


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr

    def __post_init__(self):
        row = OPERATORS.get(self.func)
        if row is None or row.arity != 1:
            raise ValueError(f"unknown function {self.func!r}")


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        row = OPERATORS.get(self.op)
        if row is None or row.arity != 2:
            raise ValueError(f"unknown operator {self.op!r}")


# ---------------------------------------------------------------------------
# intervals


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] over the extended reals; never empty."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")
        if self.lo == math.inf or self.hi == -math.inf:
            raise ValueError("interval must contain at least one real point")

    @staticmethod
    def point(v: float) -> "Interval":
        return Interval(v, v)

    @staticmethod
    def whole() -> "Interval":
        return Interval(-math.inf, math.inf)

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def sup_abs(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _down(x: float) -> float:
    return x if math.isinf(x) else math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return x if math.isinf(x) else math.nextafter(x, math.inf)


def _widened(lo: float, hi: float) -> Interval:
    return Interval(_down(lo), _up(hi))


def _clamped(lo: float, hi: float, rlo: float, rhi: float) -> Interval:
    # widen, then intersect with the function's mathematical range
    return Interval(max(_down(lo), rlo), min(_up(hi), rhi))


def _iadd(a: Interval, b: Interval) -> Interval:
    return _widened(a.lo + b.lo, a.hi + b.hi)


def _isub(a: Interval, b: Interval) -> Interval:
    return _widened(a.lo - b.hi, a.hi - b.lo)


def _prod(x: float, y: float) -> float:
    # 0 * inf must contribute 0: the zero factor annihilates any value
    # another point in the box could take.
    if x == 0.0 or y == 0.0:
        return 0.0
    return x * y


def _imul(a: Interval, b: Interval) -> Interval:
    c = (_prod(a.lo, b.lo), _prod(a.lo, b.hi), _prod(a.hi, b.lo), _prod(a.hi, b.hi))
    return _widened(min(c), max(c))


def _idiv(a: Interval, b: Interval) -> Interval:
    if b.lo <= 0.0 <= b.hi:
        raise EvalError(
            f"division denominator {b} may vanish over the evaluation domain"
        )
    # b has a fixed sign, so 1/b is [1/hi, 1/lo] in either case
    lo = 0.0 if math.isinf(b.hi) else 1.0 / b.hi
    hi = 0.0 if math.isinf(b.lo) else 1.0 / b.lo
    return _imul(a, _widened(lo, hi))


def _sech(x: float) -> float:
    try:
        return 1.0 / math.cosh(x)
    except OverflowError:
        return 0.0


def _itanh(a: Interval) -> Interval:
    return _clamped(math.tanh(a.lo), math.tanh(a.hi), -1.0, 1.0)


def _isech(a: Interval) -> Interval:
    # even, maximum 1 at 0, decreasing in |x|
    vlo, vhi = _sech(a.lo), _sech(a.hi)
    if a.lo <= 0.0 <= a.hi:
        return _clamped(min(vlo, vhi), 1.0, 0.0, 1.0)
    return _clamped(min(vlo, vhi), max(vlo, vhi), 0.0, 1.0)


def _iexp(a: Interval) -> Interval:
    lo = 0.0 if math.isinf(a.lo) else math.exp(a.lo)
    try:
        hi = math.exp(a.hi)
    except OverflowError:
        hi = math.inf
    return _clamped(lo, hi, 0.0, math.inf)


def _trig_interval(a: Interval, f, crit_offset: float) -> Interval:
    # f is sin or cos; critical points at crit_offset + k*pi
    if not a.is_bounded or a.hi - a.lo >= 2.0 * math.pi:
        return Interval(-1.0, 1.0)
    lo = min(f(a.lo), f(a.hi))
    hi = max(f(a.lo), f(a.hi))
    k = math.ceil((a.lo - crit_offset) / math.pi)
    while crit_offset + k * math.pi <= a.hi:
        v = f(crit_offset + k * math.pi)
        lo, hi = min(lo, v), max(hi, v)
        k += 1
    return _clamped(lo, hi, -1.0, 1.0)


def _iabs(a: Interval) -> Interval:
    if a.lo <= 0.0 <= a.hi:
        return Interval(0.0, max(-a.lo, a.hi))
    return Interval(min(abs(a.lo), abs(a.hi)), max(abs(a.lo), abs(a.hi)))


def _isign(a: Interval) -> Interval:
    if a.lo > 0.0:
        return Interval(1.0, 1.0)
    if a.hi < 0.0:
        return Interval(-1.0, -1.0)
    # hull across the kink; also covers the |.|-at-zero subgradient
    return Interval(-1.0, 1.0)


# ---------------------------------------------------------------------------
# the vocabulary


def _pdiv(a: float, b: float) -> float:
    if b == 0.0:
        raise EvalError("division by zero")
    return a / b


def _psign(x: float) -> float:
    return math.copysign(1.0, x) if x != 0.0 else 0.0


def _nsech(a, out):
    np.cosh(a, out=out)
    return np.divide(1.0, out, out=out)


@dataclass(frozen=True)
class Operator:
    """One row of the vocabulary: a unary function or a binary operator.

    ``point`` is the float kernel, ``interval`` the outward-rounded
    :class:`Interval` kernel and ``array`` the numpy kernel the orbit tape
    calls with ``out=``.  ``derivative`` maps a function's argument u to
    its outer derivative f'(u); :func:`differentiate` handles the binary
    operators and ``neg`` itself.
    """

    name: str
    arity: int
    point: Callable
    interval: Callable
    array: Callable
    derivative: Callable[[Expr], Expr] | None = None


# The whole vocabulary.  Adding a function means adding one row here; the
# orbit tape's opcode of an operator is the position of its row.
OPERATORS: dict[str, Operator] = {
    row.name: row
    for row in (
        Operator("+", 2, operator.add, _iadd, np.add),
        Operator("-", 2, operator.sub, _isub, np.subtract),
        Operator("*", 2, operator.mul, _imul, np.multiply),
        Operator("/", 2, _pdiv, _idiv, np.divide),
        Operator("neg", 1, operator.neg, lambda a: Interval(-a.hi, -a.lo), np.negative),
        Operator(
            "tanh", 1, math.tanh, _itanh, np.tanh,
            lambda u: _mul(Call("sech", u), Call("sech", u)),
        ),
        Operator(
            "sech", 1, _sech, _isech, _nsech,
            lambda u: _neg(_mul(Call("sech", u), Call("tanh", u))),
        ),
        Operator("exp", 1, math.exp, _iexp, np.exp, lambda u: Call("exp", u)),
        Operator(
            "sin", 1, math.sin, lambda a: _trig_interval(a, math.sin, math.pi / 2.0),
            np.sin, lambda u: Call("cos", u),
        ),
        Operator(
            "cos", 1, math.cos, lambda a: _trig_interval(a, math.cos, 0.0),
            np.cos, lambda u: _neg(Call("sin", u)),
        ),
        Operator("abs", 1, abs, _iabs, np.absolute, lambda u: Call("sign", u)),
        Operator("sign", 1, _psign, _isign, np.sign, lambda u: Const(0.0)),
    )
}

# Functions accepted in source text: every unary row but neg, which is
# written as a prefix minus.  "sign" only ever appears in printed
# derivative trees (d|u|/du); accepting it keeps print -> parse total.
FUNCTIONS = tuple(
    name for name, row in OPERATORS.items() if row.arity == 1 and name != "neg"
)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/()\[\]]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, declared: set[str]):
        self.text = text
        self.declared = declared
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.advance()
                e = BinOp(value, e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("*", "/"):
                self.advance()
                e = BinOp(value, e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            nkind, nvalue, _ = self.peek()
            # a minus sign directly on a numeral is the negative constant
            if nkind == "num":
                self.advance()
                return Const(-float(nvalue))
            return Call("neg", self.atom())
        return self.atom()

    def atom(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "num":
            return Const(float(value))
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "ident":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            if value not in self.declared:
                raise ParseError(f"undeclared identifier {value!r}", pos)
            delay = 0
            if nxt_kind == "op" and nxt_value == "[":
                self.advance()
                self.expect_op("-")
                dkind, dvalue, dpos = self.advance()
                if dkind != "num" or not dvalue.isdigit():
                    raise ParseError("delay must be a nonnegative integer", dpos)
                delay = int(dvalue)
                self.expect_op("]")
            return Var(value, delay)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_expression(text: str, declared: set[str] | frozenset[str]) -> Expr:
    """Parse ``text`` into the unique tree under standard precedence.

    ``declared`` is the set of node identifiers a variable reference may
    name; anything else is an error.
    """
    return _Parser(text, set(declared)).parse()


# ---------------------------------------------------------------------------
# printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_text(e: Expr) -> str:
    """Render ``e`` so that ``parse_expression(to_text(e))`` recovers it."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return e.node if e.delay == 0 else f"{e.node}[-{e.delay}]"
    if isinstance(e, Call):
        if e.func == "neg":
            inner = to_text(e.arg)
            needs_parens = isinstance(e.arg, (BinOp, Const)) or (
                isinstance(e.arg, Call) and e.arg.func == "neg"
            )
            if needs_parens:
                # so "-" does not merge into a numeral, grab only part of
                # the operand, or stack into the ungrammatical "--"
                return f"-({inner})"
            return f"-{inner}"
        return f"{e.func}({to_text(e.arg)})"
    if isinstance(e, BinOp):
        lp = _PREC[e.op]
        left = to_text(e.left)
        if isinstance(e.left, BinOp) and _PREC[e.left.op] < lp:
            left = f"({left})"
        right = to_text(e.right)
        if isinstance(e.right, BinOp) and _PREC[e.right.op] <= lp:
            right = f"({right})"
        elif isinstance(e.right, Call) and e.right.func == "neg" and e.op in ("-", "/"):
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# structure helpers


def references(e: Expr) -> set[tuple[str, int]]:
    """All (node, delay) pairs read by ``e``."""
    out: set[tuple[str, int]] = set()
    stack = [e]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            out.add((cur.node, cur.delay))
        elif isinstance(cur, Call):
            stack.append(cur.arg)
        elif isinstance(cur, BinOp):
            stack.append(cur.left)
            stack.append(cur.right)
    return out


def substitute(e: Expr, mapping: dict[tuple[str, int], Expr]) -> Expr:
    """Replace every ``Var`` whose (node, delay) is in ``mapping``."""
    if isinstance(e, Var):
        return mapping.get((e.node, e.delay), e)
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, mapping))
    if isinstance(e, BinOp):
        return BinOp(e.op, substitute(e.left, mapping), substitute(e.right, mapping))
    return e


# ---------------------------------------------------------------------------
# smart constructors (light constant folding)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Call) and a.func == "neg":
        return a.arg
    return Call("neg", a)


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and b.value != 0.0:
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    if isinstance(a, Const) and a.value == 0.0 and not (
        isinstance(b, Const) and b.value == 0.0
    ):
        return Const(0.0)
    return BinOp("/", a, b)


def _call(func: str, arg: Expr) -> Expr:
    if func == "neg":
        return _neg(arg)
    if isinstance(arg, Const):
        return Const(eval_point(Call(func, arg), {}))
    return Call(func, arg)


# ---------------------------------------------------------------------------
# differentiation


def differentiate(e: Expr, wrt: tuple[str, int]) -> Expr:
    """Exact symbolic partial derivative of ``e`` w.r.t. a delayed variable.

    ``wrt`` is a (node, delay) pair.  d|u|/du is taken as sign(u); the
    kink at 0 is covered on the interval side, where sign over an
    interval containing 0 evaluates to [-1, 1].
    """
    node, delay = wrt
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if (e.node, e.delay) == (node, delay) else Const(0.0)
    if isinstance(e, Call):
        inner = differentiate(e.arg, wrt)
        if isinstance(inner, Const) and inner.value == 0.0:
            return Const(0.0)
        if e.func == "neg":
            return _neg(inner)
        return _mul(OPERATORS[e.func].derivative(e.arg), inner)
    if isinstance(e, BinOp):
        dl = differentiate(e.left, wrt)
        dr = differentiate(e.right, wrt)
        if e.op == "+":
            return _add(dl, dr)
        if e.op == "-":
            return _sub(dl, dr)
        if e.op == "*":
            return _add(_mul(dl, e.right), _mul(e.left, dr))
        # quotient rule
        num = _sub(_mul(dl, e.right), _mul(e.left, dr))
        return _div(num, _mul(e.right, e.right))
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# evaluation

def eval_point(e: Expr, assignment: dict[tuple[str, int], float]) -> float:
    """Evaluate ``e`` at a point; every referenced variable must be bound."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        key = (e.node, e.delay)
        if key not in assignment:
            raise EvalError(f"no value assigned to {to_text(e)}")
        return float(assignment[key])
    if isinstance(e, Call):
        try:
            return OPERATORS[e.func].point(eval_point(e.arg, assignment))
        except OverflowError:
            raise EvalError(f"overflow evaluating {e.func}") from None
    if isinstance(e, BinOp):
        return OPERATORS[e.op].point(
            eval_point(e.left, assignment), eval_point(e.right, assignment)
        )
    raise TypeError(f"not an expression: {e!r}")


def eval_interval(e: Expr, box: dict[tuple[str, int], Interval]) -> Interval:
    """Enclose the range of ``e`` over a box of variable intervals.

    Sound: for every assignment drawn from the box, ``eval_point`` lands
    inside the result.  Bounded primitives give bounded output even over
    unbounded boxes; polynomial growth over an unbounded box yields
    infinite endpoints, left to the caller to reject.
    """
    if isinstance(e, Const):
        return Interval.point(e.value)
    if isinstance(e, Var):
        key = (e.node, e.delay)
        if key not in box:
            raise EvalError(f"no interval assigned to {to_text(e)}")
        return box[key]
    if isinstance(e, Call):
        return OPERATORS[e.func].interval(eval_interval(e.arg, box))
    if isinstance(e, BinOp):
        return OPERATORS[e.op].interval(
            eval_interval(e.left, box), eval_interval(e.right, box)
        )
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# normalization


def _flatten_add(e: Expr, sign: int, terms: list[tuple[int, Expr]]):
    if isinstance(e, BinOp) and e.op == "+":
        _flatten_add(e.left, sign, terms)
        _flatten_add(e.right, sign, terms)
    elif isinstance(e, BinOp) and e.op == "-":
        _flatten_add(e.left, sign, terms)
        _flatten_add(e.right, -sign, terms)
    elif isinstance(e, Call) and e.func == "neg":
        _flatten_add(e.arg, -sign, terms)
    else:
        terms.append((sign, e))


def _flatten_mul(e: Expr, factors: list[Expr]) -> float:
    coeff = 1.0
    if isinstance(e, BinOp) and e.op == "*":
        coeff *= _flatten_mul(e.left, factors)
        coeff *= _flatten_mul(e.right, factors)
    elif isinstance(e, Call) and e.func == "neg":
        coeff *= -_flatten_mul(e.arg, factors)
    elif isinstance(e, Const):
        coeff *= e.value
    else:
        factors.append(e)
    return coeff


def _rebuild_product(coeff: float, factors: list[Expr]) -> Expr:
    if coeff == 0.0:
        return Const(0.0)
    factors = sorted(factors, key=to_text)
    out: Expr | None = None
    for f in factors:
        out = f if out is None else BinOp("*", out, f)
    if out is None:
        return Const(coeff)
    if coeff == 1.0:
        return out
    if coeff == -1.0:
        return Call("neg", out)
    return BinOp("*", Const(coeff), out)


def normalize(e: Expr) -> Expr:
    """Canonical form: constants folded, commutative chains flattened and
    sorted, identical additive terms combined (``u - u`` cancels, ``u + u``
    becomes ``2*u``) and multiplications by literal zero dropped.

    Point values are preserved; only the tree shape changes.
    """
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Call):
        return _call(e.func, normalize(e.arg))
    if isinstance(e, BinOp) and e.op == "/":
        return _div(normalize(e.left), normalize(e.right))
    if isinstance(e, BinOp) and e.op == "*":
        factors: list[Expr] = []
        coeff = _flatten_mul(
            BinOp("*", normalize(e.left), normalize(e.right)), factors
        )
        return _rebuild_product(coeff, factors)

    # additive chain
    raw: list[tuple[int, Expr]] = []
    _flatten_add(e, 1, raw)
    const_part = 0.0
    grouped: dict[str, tuple[Expr, float]] = {}
    for sign, term in raw:
        term = normalize(term)
        factors = []
        coeff = sign * _flatten_mul(term, factors)
        if not factors:
            const_part += coeff
            continue
        core = _rebuild_product(1.0, factors)
        key = to_text(core)
        prev = grouped.get(key)
        grouped[key] = (core, coeff + (prev[1] if prev else 0.0))
    out: Expr | None = None
    for key in sorted(grouped):
        core, coeff = grouped[key]
        piece = _rebuild_product(coeff, [core])
        if isinstance(piece, Const) and piece.value == 0.0:
            continue
        out = piece if out is None else BinOp("+", out, piece)
    if out is None:
        return Const(const_part)
    if const_part != 0.0:
        out = BinOp("+", out, Const(const_part))
    return out
