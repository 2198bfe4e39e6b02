"""Expression DAGs for node update rules.

An update rule is an expression over a closed vocabulary (tanh, sech, exp,
sin, cos, abs, sign, negation and the four arithmetic operators) whose
leaves are finite constants and references to node values, possibly
delayed: ``x2[-3]`` is the value of node ``x2`` three steps in the past.
The vocabulary is the table ``OPERATORS``: one row per function or
operator with its point, interval and numpy kernels and its derivative
rule.

Expressions are DAGs: a node may be the child of several parents.  The
node constructors hash-cons: each returns the live node of the structure
it is asked for when there is one (looked up before anything is checked
or built), so every structure has one node, in every rule and from every
builder (parser, normalization, restriction, differentiation), and
equality is identity.  Every walker (printing, normalization,
differentiation, evaluation, substitution, reads) visits each distinct
node once, iteratively, with a memo keyed by node and local to the call,
so its cost is O(distinct nodes) and deep input does not exhaust the
interpreter stack; :func:`gradient` takes all partials of a rule in one
such walk, though a node's work grows with the reads below it, and
:func:`normalize` flattens each additive chain once.  Printed text still
expands the sharing, so the text of a restricted rule grows with the
number of paths, not of nodes; the parser reads each distinct
parenthesised group of it once.  The report's derivative provenance
names the nodes whose sharing nests instead.

The module provides parsing, printing, symbolic differentiation and
evaluation: one walker takes any number of roots at once, under either
the point or the interval kernels of the rows.  Interval results are
widened outward by one ulp per operation so they remain sound enclosures
without directed hardware rounding; bounded primitives are clamped to
their mathematical ranges afterwards (tanh never exceeds [-1, 1]).
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial, reduce

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
    "gradient",
    "eval_point",
    "normalize",
    "references",
    "substitute",
]

class Expr:
    """Base class for expression nodes.

    Nodes are hash-consed: a constructor returns the live node of the
    structure it is asked for when there is one, so each structure has
    one node, ``==`` and ``hash`` are identity, and walkers memoize on the
    node itself.  Nodes are immutable.  ``repr`` is iterative, but spells
    out every path.
    """

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self):
        pieces: list[str] = []
        stack: list[Expr | str] = [self]
        while stack:
            cur = stack.pop()
            if isinstance(cur, str):
                pieces.append(cur)
                continue
            parts: list[Expr | str] = [f"{type(cur).__name__}("]
            for i, name in enumerate(type(cur).__slots__):
                value = getattr(cur, name)
                parts += [", " if i else "", f"{name}="]
                parts.append(value if isinstance(value, Expr) else repr(value))
            parts.append(")")
            stack += reversed(parts)
        return "".join(pieces)


class _Ref(weakref.ref):
    __slots__ = ("key",)  # the node's key, for ``_forget``


# A weak reference to the live node of each structure, by its key: the
# node's class, then its fields in slot order, children by identity (they
# are the live nodes of their own structures); a zero constant's key adds
# the sign of its value.  An entry goes, by ``_forget``, when its node does.
# Construction takes no lock: expressions are built from one thread.  (A
# plain dict of weak references: WeakValueDictionary's get and set, written
# in Python, cost differentiation-heavy analyses about 5 % of their time.)
# A constructor looks its key up first, and only on a miss validates, keeps
# (``_keep``) and fills a new node, through its own class's slot descriptors.
_LIVE: dict[tuple, _Ref] = {}


def _forget(ref: _Ref) -> None:
    if _LIVE.get(ref.key) is ref:
        del _LIVE[ref.key]


def _keep(node: Expr, key: tuple) -> Expr:
    ref = _LIVE[key] = _Ref(node, _forget)
    ref.key = key
    return node


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        # 0.0 == -0.0, but they print differently
        key = (cls, value) if value else (cls, value, math.copysign(1.0, value))
        ref = _LIVE.get(key)
        if ref is None or (node := ref()) is None:
            if not math.isfinite(value):
                raise ValueError(f"constants must be finite, got {value!r}")
            node = _keep(object.__new__(cls), key)
            _VALUE(node, value)
        return node


class Var(Expr):
    __slots__ = ("node", "delay")

    def __new__(cls, node: str, delay: int = 0):
        key = (cls, node, delay)
        ref = _LIVE.get(key)
        if ref is None or (var := ref()) is None:
            if delay < 0:
                raise ValueError(f"negative delay {delay} on {node}")
            var = _keep(object.__new__(cls), key)
            _NODE(var, node)
            _DELAY(var, delay)
        return var


class Call(Expr):
    __slots__ = ("func", "arg")

    def __new__(cls, func: str, arg: Expr):
        key = (cls, func, arg)
        ref = _LIVE.get(key)
        if ref is None or (node := ref()) is None:
            row = OPERATORS.get(func)
            if row is None or row.arity != 1:
                raise ValueError(f"unknown function {func!r}")
            node = _keep(object.__new__(cls), key)
            _FUNC(node, func)
            _ARG(node, arg)
        return node


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __new__(cls, op: str, left: Expr, right: Expr):
        key = (cls, op, left, right)
        ref = _LIVE.get(key)
        if ref is None or (node := ref()) is None:
            row = OPERATORS.get(op)
            if row is None or row.arity != 2:
                raise ValueError(f"unknown operator {op!r}")
            node = _keep(object.__new__(cls), key)
            _OP(node, op)
            _LEFT(node, left)
            _RIGHT(node, right)
        return node


_VALUE, _NODE, _DELAY, _FUNC, _ARG, _OP, _LEFT, _RIGHT = (
    slot.__set__ for slot in (Const.value, Var.node, Var.delay, Call.func, Call.arg,
                              BinOp.op, BinOp.left, BinOp.right))


def _postorder(roots, chains: dict | None = None, repeated: set[Expr] | None = None):
    """Each distinct node reachable from ``roots``, once, children before
    parents and left before right: the order in which a recursive walk
    first finishes each node.

    When ``chains`` is given, the children of an additive chain are its
    terms (what :func:`normalize` reads) instead of its two operands, and
    ``chains`` maps the chain to them as :func:`_flatten_add` lists them.
    When ``repeated`` is given, every node reached along more than one
    edge is added to it.
    """
    order: list[Expr] = []
    seen: set[Expr] = set()
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node is None:  # the node below has all its children in order
            order.append(stack.pop())
            continue
        if node in seen:
            if repeated is not None:
                repeated.add(node)
            continue
        seen.add(node)
        kind = type(node)
        if kind is BinOp:
            if chains is not None and node.op in ("+", "-"):
                stack += (node, None)
                stack += [term for _, term in reversed(_flatten_add(node, chains))]
            else:
                stack += (node, None, node.right, node.left)
        elif kind is Call:
            stack += (node, None, node.arg)
        else:
            order.append(node)
    return order


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
    lo, hi = math.nextafter(math.inf, 0.0), math.inf  # exp above the float range
    try:
        lo = 0.0 if math.isinf(a.lo) else math.exp(a.lo)
        hi = math.exp(a.hi)
    except OverflowError:  # hi >= lo, so from the end that overflows on, the defaults hold
        pass
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
    its outer derivative f'(u); :func:`gradient` handles the binary
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

# Deepest parenthesis or function-call nesting the parser accepts.  Each
# level costs five interpreter frames, so this keeps parsing well inside
# Python's default recursion limit; printed restrictions of a k-layer
# diamond nest k + 1 levels.
MAX_NESTING = 100

# A group whose inner text has at least this many characters is
# remembered under its first _GROUP_KEY characters; a shorter one is
# parsed again at each copy, which costs no more than looking it up.
_GROUP_KEY = 16


class _Parser:
    """Recursive descent over tokens read lazily from a character position.

    A printed restriction spells every shared node out once per path, so
    its text repeats the same parenthesised groups many times.  The parser
    remembers the inner text, node and nesting height of each group it has
    parsed, keyed by the text's first characters.  At a ``(`` whose text
    goes on with a remembered inner text and then ``)``, it steps over the
    copy: the inner text is balanced, so that ``)`` closes the group.  It
    reads each distinct group once, and never scans the whole text.
    """

    __slots__ = ("text", "declared", "kind", "value", "pos", "end", "depth", "peak", "groups")

    def __init__(self, text: str, declared: set[str]):
        self.text = text
        self.declared = declared
        self.seek(0)
        self.depth = 0
        # deepest nesting reached inside the innermost open group
        self.peak = 0
        # first _GROUP_KEY characters -> (inner text, node, nesting height)
        # of each group parsed so far
        self.groups: dict[str, list[tuple[str, Expr, int]]] = {}

    def seek(self, pos: int):
        """Read the token that starts at or after ``pos``: its ``kind``,
        ``value`` and ``pos``, and the ``end`` of its text.

        A character no token starts with becomes a ``bad`` token, an error
        only once the parse reaches it.  Only an ``op`` token's value is
        one of its symbols, so the parse tests values alone.
        """
        text = self.text
        m = _TOKEN_RE.match(text, pos)
        if m is not None:
            kind = self.kind = m.lastgroup
            self.value = m.group(kind)
            self.pos, self.end = m.span(kind)
            return
        stripped = text[pos:].lstrip()
        at = self.pos = len(text) - len(stripped)
        self.kind, self.value = ("bad", stripped[0]) if stripped else ("end", "")
        self.end = at + 1

    def error(self, message: str) -> ParseError:
        """The error at the current token."""
        if self.kind == "bad":
            message = f"unexpected character {self.value!r}"
        return ParseError(message, self.pos)

    def nested(self, at: int, open_pos: int) -> Expr:
        """The expression inside the group that opens at ``open_pos``, one
        level deeper, up to and past its closing parenthesis; ``at`` is
        where a nesting error is reported."""
        if self.depth >= MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", at)
        text, start = self.text, open_pos + 1
        key = text[start:start + _GROUP_KEY]
        for inner, node, height in self.groups.get(key, ()):
            close = start + len(inner)
            # a copy of a parsed group parses to the same node, unless it now
            # sits too deep: then it is parsed again and fails where it must
            if (
                text.startswith(inner, start) and text.startswith(")", close)
                and self.depth + 1 + height <= MAX_NESTING
            ):
                self.peak = max(self.peak, self.depth + 1 + height)
                self.seek(close + 1)
                return node
        self.depth += 1
        outer_peak, self.peak = self.peak, self.depth
        e = self.expr()
        height = self.peak - self.depth
        self.peak = max(outer_peak, self.peak)
        self.depth -= 1
        close = self.pos
        self.expect_op(")")
        if close - start >= _GROUP_KEY:
            self.groups.setdefault(key, []).append((text[start:close], e, height))
        return e

    def expect_op(self, symbol: str):
        if self.value != symbol:
            raise self.error(f"expected {symbol!r}")
        self.seek(self.end)

    def parse(self) -> Expr:
        e = self.expr()
        if self.kind != "end":
            raise self.error(f"unexpected trailing input {self.value!r}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while (op := self.value) == "+" or op == "-":
            self.seek(self.end)
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while (op := self.value) == "*" or op == "/":
            self.seek(self.end)
            e = BinOp(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.value == "-":
            self.seek(self.end)
            # a minus sign directly on a numeral is the negative constant
            if self.kind == "num":
                return self.atom(-1.0)
            return Call("neg", self.atom())
        return self.atom()

    def atom(self, sign: float = 1.0) -> Expr:
        kind, value, pos = self.kind, self.value, self.pos
        if kind == "num":
            self.seek(self.end)
            number = float(value)
            if math.isinf(number):
                raise ParseError(f"numeral {value} is out of the float range", pos)
            return Const(sign * number)
        if value == "(":
            self.seek(self.end)
            return self.nested(pos, pos)
        if kind != "ident":
            raise self.error(f"unexpected token {value!r}")
        self.seek(self.end)
        if self.value == "(":
            if value not in FUNCTIONS:
                raise ParseError(f"unknown function {value!r}", pos)
            open_pos = self.pos
            self.seek(self.end)
            return Call(value, self.nested(pos, open_pos))
        if value not in self.declared:
            raise ParseError(f"undeclared identifier {value!r}", pos)
        delay = 0
        if self.value == "[":
            self.seek(self.end)
            self.expect_op("-")
            if self.kind != "num" or not self.value.isdigit():
                raise self.error("delay must be a nonnegative integer")
            delay = int(self.value)
            self.seek(self.end)
            self.expect_op("]")
        return Var(value, delay)


def parse_expression(text: str, declared: set[str] | frozenset[str]) -> Expr:
    """Parse ``text`` into the unique tree under standard precedence.

    Like every node, identical subexpressions are one node.  ``declared``
    is the set of node identifiers a variable reference may name; anything
    else is an error, and so is nesting deeper than ``MAX_NESTING``.
    Tokens are read as the parse reaches them, so of several errors the
    one met first in reading order is reported.
    """
    return _Parser(text, frozenset(declared)).parse()


# ---------------------------------------------------------------------------
# printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_text(e: Expr) -> str:
    """Render ``e`` so that ``parse_expression(to_text(e))`` recovers it.

    A node reached along several edges is rendered once and its text
    reused; every other node is written straight into one list of pieces.
    """
    return _text((e,))[0]


def _text(roots, name: Callable[[str], str] | None = None) -> list[str]:
    """``to_text`` of each of ``roots`` in one walk, or with ``name`` those
    texts with some of the nodes they share named.

    A node reached along two or more edges of all the roots (being a root
    is one) that has another such node below it prints as ``name(text)``,
    called once, children first, ``text`` being its own rendering with the
    names of the nodes below it: nested sharing is what makes the full
    text grow with the number of paths.  A name stands where the full text
    of its node stood, parentheses included, so putting each name's text
    back in its place gives ``to_text`` of each root.
    """
    repeated: set[Expr] = set()
    order = _postorder(roots, repeated=repeated)
    shared: dict[Expr, str] = {}
    nested: set[Expr] = set()  # nodes with a repeated node below them
    for cur in order if repeated else ():
        kind = type(cur)
        if kind is not Call and kind is not BinOp:
            continue
        if name is not None:
            below = (cur.arg,) if kind is Call else (cur.left, cur.right)
            if any(c in shared or c in nested for c in below):
                nested.add(cur)
        if cur in repeated:
            text = _render(cur, shared)
            shared[cur] = name(text) if cur in nested else text
    return [_render(e, shared) for e in roots]


def _render(e: Expr, shared: dict[Expr, str]) -> str:
    """The text of ``e``, taking the text of every node in ``shared`` from
    there: a node prints the same wherever it sits."""
    pieces: list[str] = []
    stack: list[Expr | str] = [e]
    while stack:
        cur = stack.pop()
        kind = type(cur)
        if kind is str:
            pieces.append(cur)
        elif cur in shared:
            pieces.append(shared[cur])
        elif kind is Const:
            pieces.append(repr(cur.value))
        elif kind is Var:
            pieces.append(cur.node if cur.delay == 0 else f"{cur.node}[-{cur.delay}]")
        elif kind is Call and cur.func == "neg":
            arg = type(cur.arg)
            if arg is BinOp or arg is Const or arg is Call and cur.arg.func == "neg":
                # so "-" does not merge into a numeral, grab only part of
                # the operand, or stack into the ungrammatical "--"
                stack += [")", cur.arg, "-("]
            else:
                stack += [cur.arg, "-"]
        elif kind is Call:
            stack += [")", cur.arg, f"{cur.func}("]
        elif kind is BinOp:
            lp = _PREC[cur.op]
            left, right = cur.left, cur.right
            if (type(right) is BinOp and _PREC[right.op] <= lp) or (
                type(right) is Call and right.func == "neg" and cur.op in ("-", "/")
            ):
                stack += [")", right, "("]
            else:
                stack.append(right)
            stack.append(f" {cur.op} ")
            if type(left) is BinOp and _PREC[left.op] < lp:
                stack += [")", left, "("]
            else:
                stack.append(left)
        else:
            raise TypeError(f"not an expression: {cur!r}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# structure helpers


def references(e: Expr) -> set[tuple[str, int]]:
    """All (node, delay) pairs read by ``e``, in one walk that lists no nodes."""
    reads, seen, stack = set(), set(), [e]
    while stack:
        cur = stack.pop()
        kind = type(cur)
        if kind is Var:
            reads.add((cur.node, cur.delay))
        elif kind is not Const and cur not in seen:
            seen.add(cur)
            stack += (cur.arg,) if kind is Call else (cur.left, cur.right)
    return reads


def substitute(e: Expr, mapping: dict[tuple[str, int], Expr]) -> Expr:
    """Replace every ``Var`` whose (node, delay) is in ``mapping``."""
    out: dict[Expr, Expr] = {}
    for cur in _postorder((e,)):
        if isinstance(cur, Var):
            new = mapping.get((cur.node, cur.delay), cur)
        elif isinstance(cur, Call):
            new = Call(cur.func, out[cur.arg])
        elif isinstance(cur, BinOp):
            new = BinOp(cur.op, out[cur.left], out[cur.right])
        else:
            new = cur
        out[cur] = new
    return out[e]


# ---------------------------------------------------------------------------
# smart constructors (light constant folding)


def _finite(value: float) -> float:
    """A folded constant; :class:`EvalError` when it left the float range."""
    if math.isinf(value):
        raise EvalError(f"a constant folds to {value}, out of the float range")
    return value


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Call) and a.func == "neg":
        return a.arg
    return Call("neg", a)


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_finite(a.value + b.value))
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_finite(a.value - b.value))
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(_finite(a.value * b.value))
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
    if isinstance(b, Const):
        if b.value == 0.0:
            raise EvalError(f"division by zero in {to_text(BinOp('/', a, b))}")
        if isinstance(a, Const):
            return Const(_finite(a.value / b.value))
        if b.value == 1.0:
            return a
    if isinstance(a, Const) and a.value == 0.0:
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


def _merge(kept: dict, changed) -> dict:
    """``kept`` updated with the (read, partial) pairs ``changed``, less zeros."""
    out = dict(kept)
    for ref, d in changed:
        if type(d) is Const and d.value == 0.0:
            out.pop(ref, None)
        else:
            out[ref] = d
    return out


def gradient(e: Expr) -> dict[tuple[str, int], Expr]:
    """Every exact partial derivative of ``e``, {(node, delay): partial},
    in one walk: each node carries the partials of the reads below it.

    A read whose partial folds to a zero constant is absent: its partial
    is ``Const(0.0)``.  d|u|/du is taken as sign(u); the kink at 0 is
    covered on the interval side, where sign over an interval containing
    0 evaluates to [-1, 1].
    """
    zero = Const(0.0)
    tangents: dict[Expr, dict[tuple[str, int], Expr]] = {}
    for cur in _postorder((e,)):
        kind = type(cur)
        if kind is Const:
            out = {}
        elif kind is Var:
            out = {(cur.node, cur.delay): Const(1.0)}
        elif kind is Call and cur.func == "neg":
            out = {ref: _neg(d) for ref, d in tangents[cur.arg].items()}
        elif kind is Call:
            inner = tangents[cur.arg]
            outer = OPERATORS[cur.func].derivative(cur.arg) if inner else zero
            out = _merge({}, ((ref, _mul(outer, d)) for ref, d in inner.items()))
        elif kind is BinOp:
            dl, dr, left, right = tangents[cur.left], tangents[cur.right], cur.left, cur.right
            if cur.op in ("+", "-"):  # a read of the left side only keeps its partial
                combine = _add if cur.op == "+" else _sub
                out = _merge(dl, ((ref, combine(dl.get(ref, zero), d)) for ref, d in dr.items()))
            else:  # the product rule's terms, or the quotient rule's numerator's
                terms = ((ref, _mul(dl.get(ref, zero), right), _mul(left, dr.get(ref, zero)))
                         for ref in dl | dr)
                if cur.op == "*":
                    out = _merge({}, ((ref, _add(a, b)) for ref, a, b in terms))
                else:
                    square = _mul(right, right)
                    out = _merge({}, ((ref, _div(_sub(a, b), square)) for ref, a, b in terms))
        else:
            raise TypeError(f"not an expression: {cur!r}")
        tangents[cur] = out
    return tangents[e]


# ---------------------------------------------------------------------------
# evaluation

# kind -> (a constant's value, a read's value from its binding, the noun
# of the error for an unbound read, the kernel of each operator)
_KINDS = {
    kind: (leaf, bound, noun, {name: getattr(row, kind) for name, row in OPERATORS.items()})
    for kind, leaf, bound, noun in (
        ("point", float, float, "value"),
        ("interval", Interval.point, lambda iv: iv, "interval"),
    )
}


def _evaluate(roots, values: dict, kind: str) -> list:
    """The value of each root in one walk under ``kind``'s kernels: at the
    point ``values`` binds (``"point"``), or enclosing the range over the
    box it binds (``"interval"``).  A node several roots share is
    evaluated once."""
    leaf, bound, noun, kernels = _KINDS[kind]
    val: dict[Expr, object] = {}
    for cur in _postorder(roots):
        node_type = type(cur)
        if node_type is Const:
            v = leaf(cur.value)
        elif node_type is Var:
            key = (cur.node, cur.delay)
            if key not in values:
                raise EvalError(f"no {noun} assigned to {to_text(cur)}")
            v = bound(values[key])
        elif node_type is Call:
            try:
                v = kernels[cur.func](val[cur.arg])
            except OverflowError:
                raise EvalError(f"overflow evaluating {cur.func}") from None
        elif node_type is BinOp:
            v = kernels[cur.op](val[cur.left], val[cur.right])
        else:
            raise TypeError(f"not an expression: {cur!r}")
        val[cur] = v
    return [val[root] for root in roots]


def eval_point(e: Expr, assignment: dict[tuple[str, int], float]) -> float:
    """Evaluate ``e`` at a point; every referenced variable must be bound."""
    return _evaluate((e,), assignment, "point")[0]


# ---------------------------------------------------------------------------
# normalization


def _flatten_add(e: Expr, chains: dict) -> list[tuple[int, Expr]]:
    """The signed terms of the additive chain at ``e``, left to right,
    also kept in ``chains`` under ``e``."""
    chains[e] = terms = []
    stack = [(1, e)]
    while stack:
        sign, cur = stack.pop()
        if type(cur) is BinOp and cur.op in ("+", "-"):
            stack.append((-sign if cur.op == "-" else sign, cur.right))
            stack.append((sign, cur.left))
        elif type(cur) is Call and cur.func == "neg":
            stack.append((-sign, cur.arg))
        else:
            terms.append((sign, cur))
    return terms


# A core is a factor or a chain of factors; no factor is a constant, product or negation.


def _split(e: Expr) -> tuple[float, Expr | None]:
    """The coefficient and core of the normal form ``e``, read off its top:
    ``c * core``, ``-core``, ``-(c * core)``, a constant (no core) or a core."""
    coeff = 1.0
    if type(e) is Call and e.func == "neg":
        coeff, e = -1.0, e.arg
    if type(e) is Const:
        return coeff * e.value, None
    if type(e) is BinOp and e.op == "*" and type(e.left) is Const:
        return coeff * e.left.value, e.right
    return coeff, e


def _key(e: Expr, keys: dict[Expr, str]) -> str:
    """``to_text(e)``, rendered once per :func:`normalize` call from the
    texts of the nodes keyed before it."""
    text = keys.get(e)
    if text is None:
        text = keys[e] = _render(e, keys)
    return text


def _scaled(coeff: float, core: Expr) -> Expr:
    """``coeff * core`` in normal form, ``coeff`` not zero."""
    if coeff == 1.0:
        return core
    if coeff == -1.0:
        return Call("neg", core)
    return BinOp("*", Const(coeff), core)


def _normalize_product(left: Expr, right: Expr, keys: dict) -> Expr:
    """The normal form of ``left * right``, both normal."""
    if type(left) is Const and left.value not in (0, 1, -1) and _split(right) == (1.0, right):
        return BinOp("*", left, right)  # a coefficient on a core: normal already
    (a, left), (b, right) = _split(left), _split(right)
    coeff = _finite(a * b)
    factors: list[Expr] = []
    for core in (left, right):
        chain = []
        while type(core) is BinOp and core.op == "*":
            chain.append(core.right)
            core = core.left
        if core is not None:
            factors.append(core)
            factors += reversed(chain)
    if coeff == 0.0:
        return Const(0.0)
    if not factors:
        return Const(coeff)
    if len(factors) > 1:
        factors.sort(key=partial(_key, keys=keys))
    return _scaled(coeff, reduce(partial(BinOp, "*"), factors))


def _normalize_sum(terms, normal: dict[Expr, Expr], keys: dict) -> Expr:
    const_part = 0.0
    grouped: dict[Expr, float] = {}  # core -> its summed coefficient
    for sign, term in terms:
        coeff, core = _split(normal[term])
        if core is None:
            const_part = _finite(const_part + sign * coeff)
        else:
            grouped[core] = _finite(sign * coeff + grouped.get(core, 0.0))
    order = sorted(grouped, key=partial(_key, keys=keys)) if len(grouped) > 1 else grouped
    pieces = [_scaled(grouped[core], core) for core in order if grouped[core]]
    if const_part != 0.0 or not pieces:
        pieces.append(Const(const_part))
    return reduce(partial(BinOp, "+"), pieces)


def normalize(e: Expr) -> Expr:
    """Canonical form: constants folded, commutative chains flattened and
    sorted, identical additive terms combined (``u - u`` cancels, ``u + u``
    becomes ``2*u``) and multiplications by literal zero dropped.  A
    division whose divisor folds to zero raises :class:`EvalError`, and
    so does a constant that folds out of the float range.

    Point values are preserved; only the tree shape changes.  Each
    distinct node is normalized once; an additive chain is flattened once
    and summed whole, never from the normal forms of its sub-chains, so
    its coefficients add up in one fixed order.  A normal term's
    coefficient is read off its top node.  Terms and factors are ordered
    by their printed text, rendered once per call from its children's and
    only where two or more must be ordered.
    """
    normal: dict[Expr, Expr] = {}
    keys: dict[Expr, str] = {}
    chains: dict[Expr, list] = {}
    for cur in _postorder((e,), chains):
        kind = type(cur)
        if kind is Call:
            out = _call(cur.func, normal[cur.arg])
        elif kind is BinOp and cur.op in ("+", "-"):
            out = _normalize_sum(chains[cur], normal, keys)
        elif kind is BinOp:
            left, right = normal[cur.left], normal[cur.right]
            out = _div(left, right) if cur.op == "/" else _normalize_product(left, right, keys)
        elif kind is Const or kind is Var:
            out = cur
        else:
            raise TypeError(f"not an expression: {cur!r}")
        normal[cur] = out
    return normal[e]
