import collections
import functools
import gc
import math
from pathlib import Path

import numpy as np
import pytest

from gen import (diamond_network, eval_interval, random_network, reference_build_network,
                 reference_normalize, reference_parse)
from netstab import gallery, network
from netstab.errors import EvalError, NetworkError, ParseError
from netstab.expr import (
    MAX_NESTING,
    OPERATORS,
    BinOp,
    Call,
    Const,
    Expr,
    Interval,
    Var,
    _GROUP_KEY,
    _LIVE,
    _Normal,
    _Parser,
    _add,
    _div,
    _evaluate,
    _mul,
    _neg,
    _normal,
    _ordered,
    _parse_normal,
    _postorder,
    _render,
    _sub,
    eval_point,
    gradient,
    normalize,
    parse_expression,
    references,
    substitute,
    to_text,
)
from netstab.network import dump_network, load_network
from netstab.stability import analyze
from netstab.transform import expand, restrict

NODES = {"x1", "x2", "x3"}


def test_parse_function_call_with_delay():
    e = parse_expression("tanh(0.3*x2[-3])", NODES)
    assert e == Call("tanh", BinOp("*", Const(0.3), Var("x2", 3)))


def test_parse_bare_name_means_delay_zero():
    assert parse_expression("x1", NODES) == Var("x1", 0)


def test_parse_undeclared_identifier():
    with pytest.raises(ParseError):
        parse_expression("x9[-1]", NODES)


def test_parse_reports_position():
    try:
        parse_expression("x1 + @", NODES)
    except ParseError as err:
        assert err.position == 5
    else:
        raise AssertionError("expected a parse error")


def test_parse_precedence():
    e = parse_expression("x1 + x2 * x3", NODES)
    assert e == BinOp("+", Var("x1"), BinOp("*", Var("x2"), Var("x3")))
    e = parse_expression("-x1 * x2", NODES)
    assert e == BinOp("*", Call("neg", Var("x1")), Var("x2"))


def test_parse_left_associative():
    e = parse_expression("x1 - x2 - x3", NODES)
    assert e == BinOp("-", BinOp("-", Var("x1"), Var("x2")), Var("x3"))


def test_parse_rejects_unknown_function():
    with pytest.raises(ParseError):
        parse_expression("cot(x1)", NODES)


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_expression("x1 x2", NODES)


def test_eval_point_examples():
    e = parse_expression("(1-0.5)*x1[-1] + 0.2", NODES)
    assert eval_point(e, {("x1", 1): 2.0}) == pytest.approx(1.2, abs=1e-15)
    assert eval_point(parse_expression("tanh(x1)", NODES), {("x1", 0): 0.0}) == 0.0
    assert eval_point(parse_expression("abs(x1)", NODES), {("x1", 0): -3.0}) == 3.0


def test_eval_point_division_by_zero():
    e = parse_expression("x1 / x2", NODES)
    with pytest.raises(EvalError):
        eval_point(e, {("x1", 0): 1.0, ("x2", 0): 0.0})


def test_eval_point_missing_assignment():
    with pytest.raises(EvalError):
        eval_point(parse_expression("x1 + x2", NODES), {("x1", 0): 1.0})


def test_derivative_examples():
    # d/d(x2,3) of tanh(b*x2[-3]) = b*sech^2(b*x2[-3])
    e = parse_expression("tanh(0.4*x2[-3])", NODES)
    d = gradient(e)[("x2", 3)]
    for x in (-1.3, 0.0, 0.7):
        got = eval_point(d, {("x2", 3): x})
        want = 0.4 / math.cosh(0.4 * x) ** 2
        assert got == pytest.approx(want, rel=1e-14)

    assert gradient(Const(3.0)) == {}

    lin = parse_expression("0.5*x1[-1] + 0.2*tanh(x2[-3])", NODES)
    assert gradient(lin)[("x1", 1)] is Const(0.5)


def test_derivative_distinguishes_delays():
    e = parse_expression("x1 + x1[-2]", NODES)
    # ("x1", 1) is not read: its partial is zero, so it is absent
    assert gradient(e) == {("x1", 0): Const(1.0), ("x1", 2): Const(1.0)}


def _random_expr(rng, depth: int, allow_abs: bool = True):
    names = sorted(NODES)
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        if rng.random() < 0.4:
            return Const(float(rng.uniform(-2, 2)))
        return Var(names[rng.integers(0, len(names))], int(rng.integers(0, 3)))
    if roll < 0.6:
        funcs = ["tanh", "sech", "exp", "sin", "cos"] + (["abs"] if allow_abs else [])
        f = funcs[rng.integers(0, len(funcs))]
        return Call(f, _random_expr(rng, depth - 1, allow_abs))
    if roll < 0.7:
        return Call("neg", _random_expr(rng, depth - 1, allow_abs))
    op = "+-*"[rng.integers(0, 3)]
    return BinOp(op, _random_expr(rng, depth - 1, allow_abs), _random_expr(rng, depth - 1, allow_abs))


def test_roundtrip_parse_print_random():
    rng = np.random.default_rng(42)
    for _ in range(500):
        e = _random_expr(rng, 4)
        assert parse_expression(to_text(e), NODES) == e


def test_interval_soundness_random():
    # 1000 random expressions; the point value always lands in the interval
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        e = _random_expr(rng, 4)
        box = {}
        point = {}
        for ref in references(e):
            lo = float(rng.uniform(-3, 1))
            hi = lo + float(rng.uniform(0, 3))
            box[ref] = Interval(lo, hi)
            point[ref] = float(rng.uniform(lo, hi))
        try:
            value = eval_point(e, point)
        except EvalError:
            continue
        iv = eval_interval(e, box)
        assert iv.lo <= value <= iv.hi, (to_text(e), value, iv)
        checked += 1


def test_interval_soundness_unbounded_box():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 200:
        e = _random_expr(rng, 3)
        box = {ref: Interval.whole() for ref in references(e)}
        point = {ref: float(rng.uniform(-30, 30)) for ref in references(e)}
        try:
            value = eval_point(e, point)
            iv = eval_interval(e, box)
        except EvalError:
            continue
        assert iv.lo <= value <= iv.hi
        checked += 1


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(11)
    step = 1e-6
    checked = 0
    while checked < 300:
        e = _random_expr(rng, 4, allow_abs=False)
        refs = sorted(references(e))
        if not refs:
            continue
        wrt = refs[rng.integers(0, len(refs))]
        point = {ref: float(rng.uniform(-1.5, 1.5)) for ref in refs}
        try:
            d_sym = eval_point(gradient(e).get(wrt, Const(0.0)), point)
            up = dict(point)
            up[wrt] += step
            dn = dict(point)
            dn[wrt] -= step
            d_num = (eval_point(e, up) - eval_point(e, dn)) / (2 * step)
        except EvalError:
            continue
        if abs(d_num) > 1e3 or not math.isfinite(d_num):
            continue
        assert d_sym == pytest.approx(d_num, rel=1e-6, abs=2e-6)
        checked += 1


def test_interval_bounded_primitives():
    whole = {("x1", 0): Interval.whole()}
    iv = eval_interval(parse_expression("sech(x1)*sech(x1)", NODES), whole)
    assert iv.lo >= -1e-300 and abs(iv.hi - 1.0) < 1e-12
    iv = eval_interval(parse_expression("tanh(x1)", NODES), whole)
    assert (iv.lo, iv.hi) == (-1.0, 1.0)
    iv = eval_interval(parse_expression("sin(x1)", NODES), whole)
    assert (iv.lo, iv.hi) == (-1.0, 1.0)

    iv = eval_interval(parse_expression("x1*x1", NODES), {("x1", 0): Interval(1, 2)})
    assert iv.lo == pytest.approx(1.0, abs=1e-12)
    assert iv.hi == pytest.approx(4.0, abs=1e-12)


def test_lipschitz_bound_of_scaled_tanh():
    # sup |d tanh(b x)/dx| over the reals equals |b|
    b = 0.3
    d = gradient(parse_expression("tanh(0.3*x1)", NODES))[("x1", 0)]
    iv = eval_interval(d, {("x1", 0): Interval.whole()})
    assert iv.sup_abs() == pytest.approx(b, abs=1e-12)


def test_interval_unbounded_polynomial():
    iv = eval_interval(parse_expression("x1*x1", NODES), {("x1", 0): Interval.whole()})
    assert not iv.is_bounded


def test_interval_division_through_zero_rejected():
    with pytest.raises(EvalError):
        eval_interval(
            parse_expression("x1 / x2", NODES),
            {("x1", 0): Interval(1, 2), ("x2", 0): Interval(-1, 1)},
        )


def test_interval_division_sound():
    iv = eval_interval(
        parse_expression("x1 / x2", NODES),
        {("x1", 0): Interval(1, 2), ("x2", 0): Interval(2, 4)},
    )
    assert iv.lo <= 0.25 and iv.hi >= 1.0


def test_abs_derivative_interval_covers_kink():
    d = gradient(parse_expression("abs(x1)", NODES))[("x1", 0)]
    iv = eval_interval(d, {("x1", 0): Interval(-1, 1)})
    assert (iv.lo, iv.hi) == (-1.0, 1.0)
    iv = eval_interval(d, {("x1", 0): Interval(0.5, 2.0)})
    assert (iv.lo, iv.hi) == (1.0, 1.0)


def test_normalize_cancels_identical_terms():
    e = parse_expression("0.5*x1 + tanh(0.7*x2) - tanh(0.7*x2)", NODES)
    assert normalize(e) == BinOp("*", Const(0.5), Var("x1"))


def test_normalize_combines_identical_terms():
    e = parse_expression("tanh(x1) + tanh(x1)", NODES)
    assert normalize(e) == BinOp("*", Const(2.0), Call("tanh", Var("x1")))


def test_normalize_drops_zero_products():
    e = parse_expression("0*x1[-5] + x2", NODES)
    assert normalize(e) == Var("x2")


def test_normalize_returns_one_node_per_structure():
    # equal subtrees built apart come back as one node, as parsing the
    # printed text would share them
    def inner():
        return Call("tanh", BinOp("+", Var("x1"), Const(0.5)))

    e = BinOp("+", Call("sin", inner()), BinOp("*", Const(2.0), Call("cos", inner())))
    nodes = _postorder([normalize(e)])
    assert len(nodes) == len({to_text(n) for n in nodes})
    assert len(nodes) == len(_postorder([normalize(parse_expression(to_text(e), NODES))]))


def test_normalize_idempotent_and_value_preserving():
    rng = np.random.default_rng(13)
    for _ in range(300):
        e = _random_expr(rng, 4)
        ne = normalize(e)
        assert normalize(ne) == ne
        point = {ref: float(rng.uniform(-1, 1)) for ref in references(e)}
        try:
            v1 = eval_point(e, point)
        except EvalError:
            continue
        assert eval_point(ne, point) == pytest.approx(v1, rel=1e-12, abs=1e-12)


def test_interval_invariants():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)
    with pytest.raises(ValueError):
        Interval(math.inf, math.inf)
    assert Interval.point(3.0).sup_abs() == 3.0


def test_const_must_be_finite():
    with pytest.raises(ValueError):
        Const(math.inf)


@pytest.mark.parametrize("text, position", [("x1 + 1e400", 5), ("tanh(-1e400)", 6)])
def test_a_numeral_out_of_range_is_a_parse_error_at_its_position(text, position):
    with pytest.raises(ParseError, match="float range") as info:
        parse_expression(text, NODES)
    assert info.value.position == position


@pytest.mark.parametrize("text", [
    "x1 + 1e200*1e200",
    "0.5*x1 + (1e308 + 1e308)",
    "0.5*x1 + 1e308/1e-10",
    "0.5*x1 - (-1e308 - 1e308)",
    "2.0*(1e308*x1)",  # the product's coefficient
    "1e308*x1 + 1e308*x1",  # the combined terms' coefficient
    "0.5*x1 + (1e308 + x1 - x1 + 1e308)",  # the sum's constant part
    "exp(1000.0)",
])
def test_folding_out_of_the_float_range_is_an_eval_error(text):
    with pytest.raises(EvalError, match="float range|overflow"):
        normalize(parse_expression(text, NODES))


def test_a_partial_folding_out_of_the_float_range_is_an_eval_error():
    e = normalize(parse_expression("1e200*(1e200*x1 + 1.0)", NODES))
    with pytest.raises(EvalError, match="float range"):
        gradient(e)


# ---------------------------------------------------------------------------
# shared DAGs and deep input


def test_parse_shares_identical_subexpressions():
    e = parse_expression("tanh(x1 + 0.5) * tanh(x1 + 0.5) - x1", NODES)
    assert e.left.left is e.left.right
    assert e.right is e.left.left.arg.left


def test_parse_keeps_signed_zeros_apart():
    # 0.0 == -0.0, so a key on the value alone would merge the two leaves
    text = "tanh(-0.0) + tanh(0.0)"
    assert to_text(parse_expression(text, set())) == text


def _bits(v: Interval):
    return v.lo.hex(), v.hi.hex()


def _per_path(e, leaf, combine):
    """Fold ``e`` recursively and without a memo, so once per path: the
    reference the memoized walkers must agree with."""
    if isinstance(e, Call):
        return combine(e, _per_path(e.arg, leaf, combine))
    if isinstance(e, BinOp):
        return combine(e, _per_path(e.left, leaf, combine), _per_path(e.right, leaf, combine))
    return leaf(e)


def _point_per_path(e, point):
    return _per_path(
        e,
        lambda v: v.value if isinstance(v, Const) else point[(v.node, v.delay)],
        lambda cur, *args: OPERATORS[cur.func if isinstance(cur, Call) else cur.op].point(*args),
    )


def _interval_per_path(e, box):
    return _per_path(
        e,
        lambda v: Interval.point(v.value) if isinstance(v, Const) else box[(v.node, v.delay)],
        lambda cur, *args: OPERATORS[cur.func if isinstance(cur, Call) else cur.op].interval(*args),
    )


def _derivative_per_path(e, wrt):
    """The partial w.r.t. ``wrt`` by gradient's rules, applied once per
    path and with every tangent kept, zeros too."""
    def leaf(v):
        return Const(1.0 if isinstance(v, Var) and (v.node, v.delay) == wrt else 0.0)

    def combine(cur, *ds):
        if isinstance(cur, Call):
            (inner,) = ds
            if isinstance(inner, Const) and inner.value == 0.0:
                return Const(0.0)
            if cur.func == "neg":
                return _neg(inner)
            return _mul(OPERATORS[cur.func].derivative(cur.arg), inner)
        dl, dr = ds
        if cur.op in ("+", "-"):
            return (_add if cur.op == "+" else _sub)(dl, dr)
        if cur.op == "*":
            return _add(_mul(dl, cur.right), _mul(cur.left, dr))
        num = _sub(_mul(dl, cur.right), _mul(cur.left, dr))
        return _div(num, _mul(cur.right, cur.right))

    return _per_path(e, leaf, combine)


def test_shared_dag_walks_bit_identical_to_its_tree():
    dag = restrict(diamond_network(np.random.default_rng(6), 6), ["s"]).updates["s"]
    paths = _per_path(dag, lambda _: 1, lambda _, *counts: 1 + sum(counts))
    assert len(_postorder([dag])) < 200 < paths
    assert to_text(dag) == _render(dag, {})  # the renderer with nothing shared
    assert normalize(dag) is dag
    for box in ({("s", 0): Interval(-2.0, 3.0)}, {("s", 0): Interval.whole()}):
        assert _bits(eval_interval(dag, box)) == _bits(_interval_per_path(dag, box))
    for x in (-1.3, 0.0, 0.7):
        point = {("s", 0): x}
        assert eval_point(dag, point).hex() == _point_per_path(dag, point).hex()
    grad = gradient(dag)
    assert ("s", 1) not in grad and _derivative_per_path(dag, ("s", 1)) is Const(0.0)
    assert grad.keys() == references(dag)
    for ref in references(dag):
        d = grad[ref]
        assert d is _derivative_per_path(dag, ref)
        box = {("s", 0): Interval(-2.0, 3.0)}
        assert _bits(eval_interval(d, box)) == _bits(_interval_per_path(d, box))


def _random_quotient_expr(rng, depth: int):
    """Like ``_random_expr``, with abs, sign and division by a nonzero
    constant or by a variable."""
    roll = rng.random()
    if depth == 0 or roll < 0.6:
        e = _random_expr(rng, min(depth, 2))
    elif roll < 0.7:
        e = Call(("abs", "sign", "neg")[rng.integers(0, 3)], _random_quotient_expr(rng, depth - 1))
    else:
        op = "+-*"[rng.integers(0, 3)]
        e = BinOp(op, _random_quotient_expr(rng, depth - 1), _random_quotient_expr(rng, depth - 1))
    if rng.random() < 0.3:
        names = sorted(NODES)
        divisor = (
            Const(float(rng.choice([-1, 1]) * rng.uniform(0.25, 2)))
            if rng.random() < 0.5
            else Var(names[rng.integers(0, len(names))], int(rng.integers(0, 3)))
        )
        e = BinOp("/", e, divisor)
    return e


def test_gradient_is_the_per_path_derivative_of_each_read():
    rng = np.random.default_rng(19)
    zero = Const(0.0)
    folded_to_zero = 0
    for _ in range(1000):
        raw = _random_quotient_expr(rng, 4)
        for e in (raw, normalize(raw)):
            grad = gradient(e)
            assert grad.keys() <= references(e)
            for ref in references(e):
                want = _derivative_per_path(e, ref)
                if isinstance(want, Const) and want.value == 0.0:
                    # folded to zero (of either sign): absent, so Const(0.0)
                    assert ref not in grad
                    folded_to_zero += 1
                else:
                    assert grad[ref] is want, (to_text(e), ref)
    assert folded_to_zero > 0


def _per_path_or_none(per_path, e, values):
    try:
        return per_path(e, values)
    except (EvalError, OverflowError):
        return None


def test_one_walk_over_many_roots_gives_each_roots_per_path_value():
    # 1,000 random expressions in pools of four; the roots of one walk are
    # a pool's members, combinations of two of them and their partials, so
    # they share nodes.  One multi-root walk must give every root the value
    # of its own once-per-path fold, bit for bit, under both kernels
    rng = np.random.default_rng(29)
    refs = [(name, delay) for name in sorted(NODES) for delay in range(3)]
    roots_checked = shared_nodes = 0
    for _ in range(250):
        pool = [_random_quotient_expr(rng, 3) for _ in range(4)]
        roots = list(pool)
        for _ in range(3):
            a, b = rng.integers(0, len(pool), 2)
            roots.append(BinOp("+-*"[rng.integers(0, 3)], pool[a], Call("tanh", pool[b])))
        roots += [d for e in pool for d in gradient(e).values()]
        box, point = {}, {}
        for ref in refs:
            lo = float(rng.uniform(-3, 1))
            hi = lo + float(rng.uniform(0, 3))
            box[ref] = Interval.whole() if rng.random() < 0.1 else Interval(lo, hi)
            point[ref] = float(rng.uniform(lo, hi))
        for kind, per_path, values, bits in (
            ("point", _point_per_path, point, float.hex),
            ("interval", _interval_per_path, box, _bits),
        ):
            want = {e: _per_path_or_none(per_path, e, values) for e in roots}
            kept = [e for e in roots if want[e] is not None]
            got = _evaluate(kept, values, kind)
            assert [bits(v) for v in got] == [bits(want[e]) for e in kept]
            roots_checked += len(kept)
        shared_nodes += sum(len(_postorder([e])) for e in roots) - len(_postorder(roots))
    assert roots_checked >= 3000 and shared_nodes > 1000


def test_walkers_map_a_shared_node_to_one_node():
    u = parse_expression("sin(x1 * x2) * sin(x1 * x2)", NODES)
    d = gradient(u)[("x1", 0)]  # d * sin + sin * d, d = cos(x1 * x2) * x2
    assert d.left.left is d.right.right
    e = parse_expression("tanh(x1) * x2 + tanh(x1)", NODES)
    out = substitute(e, {("x1", 0): parse_expression("x2 - x3", NODES)})
    assert to_text(out) == "tanh(x2 - x3) * x2 + tanh(x2 - x3)"
    assert out.left.left is out.right


def test_long_sum_walks_without_recursion():
    n = 3000
    text = " + ".join(f"{0.5 / n!r}*tanh(x1 - {i / n!r})" for i in range(n))
    e = parse_expression(text, NODES)
    printed = to_text(e)
    assert to_text(parse_expression(printed, NODES)) == printed
    ne = normalize(e)
    assert references(ne) == {("x1", 0)}
    d = gradient(ne)[("x1", 0)]
    assert eval_interval(d, {("x1", 0): Interval.whole()}).sup_abs() <= 0.5 + 1e-9
    assert eval_point(ne, {("x1", 0): 0.2}) == pytest.approx(
        eval_point(e, {("x1", 0): 0.2}), rel=1e-12
    )


def test_long_sum_compares_hashes_and_prints_without_recursion():
    n = 3000
    text = " + ".join(f"{0.5 / n!r}*tanh(x1 - {i / n!r})" for i in range(n))
    a, b = parse_expression(text, NODES), parse_expression(text, NODES)
    assert a is b
    assert repr(a).startswith("BinOp(op='+', left=BinOp(op='+', left=")
    last = "Var(node='x1', delay=0), right=Const(value=0.9996666666666667)))))"
    assert repr(a).endswith(last)
    changed = parse_expression(text.replace("0.9996666666666667", "0.9997"), NODES)
    assert a != changed


def test_separate_parses_of_a_restricted_diamond_compare_equal():
    text = to_text(restrict(diamond_network(np.random.default_rng(5), 12), ["s"]).updates["s"])
    a, b = parse_expression(text, {"s"}), parse_expression(text, {"s"})
    assert a is b and len(_postorder([a])) < 300
    # the innermost read of s, under every one of the 2^12 branches
    changed = parse_expression(text.replace("tanh(s)", "tanh(s[-1])"), {"s"})
    assert a != changed and not a == changed


def test_parse_nesting_limit():
    for depth in (MAX_NESTING, 1):
        text = "(" * depth + "x1" + ")" * depth
        assert to_text(parse_expression(text, NODES)) == "x1"
    deepest = "tanh(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert to_text(parse_expression(deepest, NODES)) == deepest
    for text in (
        "(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1),
        "sin(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1),
        "(" * 2000 + "x1" + ")" * 2000,
    ):
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_expression(text, NODES)


# ---------------------------------------------------------------------------
# one node per structure


def test_signed_zeros_are_two_nodes():
    assert Const(0.0) is not Const(-0.0)
    assert Const(0.0) != Const(-0.0) and not Const(0.0) == Const(-0.0)
    assert Const(-0.0) is Const(-0.0) and Const(0) is Const(0.0)
    assert to_text(Const(-0.0)) == "-0.0"


def test_parse_constructors_normalize_and_restrict_build_the_same_node():
    e = parse_expression("tanh(x1 + 0.5) * x2[-1]", NODES)
    assert e is BinOp("*", Call("tanh", BinOp("+", Var("x1"), Const(0.5))), Var("x2", 1))
    assert normalize(parse_expression("x2[-1] * tanh(0.5 + x1)", NODES)) is normalize(e)
    net = restrict(diamond_network(np.random.default_rng(4), 4), ["s"])
    update = net.updates["s"]
    assert parse_expression(to_text(update), {"s"}) is update
    assert load_network(dump_network(net)).updates["s"] is update
    assert normalize(update) is update
    rebuilt = _per_path(
        update,
        lambda v: Const(v.value) if isinstance(v, Const) else Var(v.node, v.delay),
        lambda cur, *kids: Call(cur.func, *kids) if isinstance(cur, Call) else BinOp(cur.op, *kids),
    )
    assert rebuilt is update


def test_nodes_are_immutable():
    for node in (Const(1.5), Var("x1", 2), Call("tanh", Var("x1")), BinOp("+", Var("x1"), Const(1.5))):
        field = type(node).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(node, field, getattr(node, field))
        with pytest.raises(AttributeError):
            node.extra = 1
        with pytest.raises(AttributeError):
            delattr(node, field)
    assert Const(1.5).value == 1.5


def test_a_dropped_restrict_and_analyze_leaves_no_live_node():
    def round_trip():
        # a diamond that no other test holds, so its nodes are new
        net = restrict(diamond_network(np.random.default_rng(8191), 10), ["s"])
        report = analyze(net)
        return len(_LIVE), report.rho

    gc.collect()
    baseline = len(_LIVE)
    during, rho = round_trip()
    gc.collect()
    assert during > baseline + 50 and rho > 0.0
    assert len(_LIVE) == baseline


# ---------------------------------------------------------------------------
# repeated groups are parsed once


class _CountingParser(_Parser):
    """Counts the (sub)expressions it parses token by token."""

    def expr(self):
        self.parsed = getattr(self, "parsed", 0) + 1
        return super().expr()


def test_repeated_group_is_the_node_a_fresh_parse_interns():
    group = "x1 + tanh(x2 * x3[-1])"
    once = _CountingParser(f"({group})", NODES)
    once.parse()
    parser = _CountingParser(f"({group}) * sin({group}) - ({group})", NODES)
    e = parser.parse()
    # the copies are stepped over, not read again
    assert parser.parsed == once.parsed == 3
    first = e.left.left
    assert e.left.right.arg is first and e.right is first
    assert parse_expression(group, NODES) is first


@pytest.mark.parametrize("first, second", [
    ("x1", "x1 + x2"),
    ("x1 + x2 * x3 - x1", "x1 + x2 * x3 - x1 + x2"),
    ("x1 + x2 * x3 - x1", "x1 + x2 * x3 - x1[-1]"),
    ("x1 + x2 * x3 - x1", "x1 + x2 * x3 - x1 * tanh(x2)"),
])
def test_a_remembered_group_that_starts_a_longer_one_is_not_its_copy(first, second):
    text = f"({first}) + ({second})"
    parser = _CountingParser(text, NODES)
    e = parser.parse()
    assert e == parse_expression(f"{first} + ({second})", NODES)
    # the second group is read, not stepped over
    assert parser.parsed == 3 + second.count("(")


def test_restricted_diamond_text_loads_back_equal():
    net = restrict(diamond_network(np.random.default_rng(12), 12), ["s"])
    text = dump_network(net)
    assert len(text) > 300_000
    loaded = load_network(text)
    assert loaded == net
    assert dump_network(loaded) == text


def test_nesting_limit_holds_for_a_repeated_group():
    # tanh^50(x1) is legal where it first appears; its copies nest 50 more
    # levels under whatever encloses them
    group = "tanh(" * 50 + "x1" + ")" * 50
    outer = f"sin({group})"  # its copy of the group is a repeat
    for prefix in (group, f"{group} + {outer}"):
        fits = f"{prefix} + " + "(" * 49 + outer + ")" * 49
        assert to_text(parse_expression(fits, NODES)).endswith(outer)
        for copy, height in ((group, 50), (outer, 51)):
            extra = MAX_NESTING + 1 - height  # one level too many
            deep = "(" * extra + copy + ")" * extra
            with pytest.raises(ParseError, match="nesting deeper than") as alone:
                parse_expression(deep, NODES)
            with pytest.raises(ParseError, match="nesting deeper than") as repeated:
                parse_expression(f"{prefix} + {deep}", NODES)
            assert repeated.value.position == alone.value.position + len(prefix) + 3


@pytest.mark.parametrize("text, message, position", [
    ("(x1 + x2", "expected ')'", 8),
    ("tanh(x1", "expected ')'", 7),
    ("((x1) + (x2)", "expected ')'", 12),
    ("(x1) + (x1", "expected ')'", 10),
    ("(x1 + x2 * x3 - x1) + (x1 + x2 * x3 - x1", "expected ')'", 40),
    ("x1 + x2)", "unexpected trailing input ')'", 7),
    ("tanh(x2)) + (x1", "unexpected trailing input ')'", 8),
    (")x1(", "unexpected token ')'", 0),
    ("()", "unexpected token ')'", 1),
    ("x1 + @", "unexpected character '@'", 5),
    ("x1 + (x2 $ x3)", "unexpected character '$'", 9),
    ("(x1 + x2) + (x1 + x2 $)", "unexpected character '$'", 21),
    ("tanh(x1) # c", "unexpected character '#'", 9),
    ("x1[-@]", "unexpected character '@'", 4),
    ("x1[-2.5]", "delay must be a nonnegative integer", 4),
])
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_expression(text, NODES)
    assert str(err.value).startswith(message)
    assert err.value.position == position


@pytest.mark.parametrize("text, message, position", [
    ("x9 + @", "undeclared identifier 'x9'", 0),
    ("cot(x1) @", "unknown function 'cot'", 0),
    ("x1 x2 @", "unexpected trailing input 'x2'", 3),
    ("(x1 @ x9) + x9", "unexpected character '@'", 4),
    ("x1 + (x2 + x9) $", "undeclared identifier 'x9'", 11),
])
def test_parse_reports_the_first_error_in_reading_order(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_expression(text, NODES)
    assert str(err.value).startswith(message)
    assert err.value.position == position


# ---------------------------------------------------------------------------
# the front end against its reference: tests/gen.py keeps the parser and
# normalizer as they were before they were made cheaper, and both must give
# the very same node, or the same error, on every input


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or its error's type, message and position."""
    try:
        return fn(*args)
    except (ParseError, EvalError) as err:
        return type(err), str(err), getattr(err, "position", None)


def _rule_texts(text: str):
    """The (node, rule, declared) of each update line of a network file."""
    lines = text.splitlines()
    declared = frozenset(line.split()[1] for line in lines if line.startswith("node "))
    return [(line.split()[1], line.split("=", 1)[1].strip(), declared)
            for line in lines if line.startswith("update ")]


@functools.cache
def _front_end_files() -> tuple[str, ...]:
    """Network files: the gallery and random networks dumped, the bundled
    files, and restricted and expanded diamonds dumped."""
    nets = [
        gallery.cg_ring(6, 0.1, 1.0, 0.5), gallery.delayed_pair(0.5, 0.1, 1.0, c1=0.3),
        gallery.undelayed_pair(0.5, 0.1, 1.0), gallery.distributed_pair(),
        gallery.tanh_ring(6, 0.5), gallery.six_node(),
    ]
    bundled = sorted((Path(__file__).resolve().parent.parent / "networks").glob("*.net"))
    rng = np.random.default_rng(29)
    for k in range(40):
        delay = 3 * (k % 2)
        nets.append(random_network(rng, int(rng.integers(2, 14)), max_delay=delay,
                                   require_delay=delay > 0))
    for k in range(4, 11):
        diamond = diamond_network(np.random.default_rng(k), k)
        nets += [restrict(diamond, ["s"]), expand(diamond, ["s"]).net]
    return tuple([dump_network(net) for net in nets] + [path.read_text() for path in bundled])


def test_the_rules_of_network_files_parse_and_normalize_as_the_reference():
    files = rules = 0
    for text in _front_end_files():
        loaded = load_network(text)
        for node, rule, declared in _rule_texts(text):
            parsed = parse_expression(rule, declared)
            assert parsed is reference_parse(rule, declared)
            assert normalize(parsed) is reference_normalize(parsed)
            assert loaded.updates[node] is reference_normalize(parsed)
            rules += 1
        files += 1
    assert files == 6 + 40 + 14 + 5 and rules > 18_000


def _random_tree(rng, depth: int, pool: list):
    """A random tree over x1..x3 and every operator, reusing earlier
    subtrees from ``pool``; its constants include signed zeros, ones and
    values whose products or quotients leave the float range."""
    roll = rng.random()
    if pool and roll < 0.1:
        return pool[int(rng.integers(len(pool)))]
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.5:
            consts = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e200, -1e300, 1e-200)
            value = consts[int(rng.integers(len(consts)))] if rng.random() < 0.5 else rng.uniform(-2, 2)
            return Const(float(value))
        return Var(f"x{int(rng.integers(1, 4))}", int(rng.integers(0, 3)))
    if roll < 0.55:
        funcs = ("tanh", "sech", "exp", "sin", "cos", "abs", "sign", "neg", "neg")
        e = Call(funcs[int(rng.integers(len(funcs)))], _random_tree(rng, depth - 1, pool))
    else:
        op = "+-*/"[int(rng.integers(4))]
        e = BinOp(op, _random_tree(rng, depth - 1, pool), _random_tree(rng, depth - 1, pool))
    pool.append(e)
    return e


def test_random_trees_parse_and_normalize_as_the_reference():
    rng = np.random.default_rng(2029)
    errors = collections.Counter()
    for _ in range(2500):
        tree = _random_tree(rng, int(rng.integers(1, 7)), [])
        got = _outcome(normalize, tree)
        assert got == _outcome(reference_normalize, tree)  # nodes compare by identity
        if not isinstance(got, Expr):
            errors[got[1].split(" ")[0]] += 1
        text = to_text(tree)
        assert parse_expression(text, NODES) is reference_parse(text, NODES) is tree
    # every folding error was met: a constant out of the float range, a
    # division by a zero divisor and a function that overflows
    assert min(errors[kind] for kind in ("a", "division", "overflow")) > 2


def test_mutated_texts_parse_as_the_reference():
    rng = np.random.default_rng(4242)
    texts = [(rule, declared) for text in _front_end_files()
             for _, rule, declared in _rule_texts(text)]
    texts = [texts[i] for i in rng.choice(len(texts), 300, replace=False)]
    pool: list = []
    texts += [(to_text(_random_tree(rng, 4, pool)), NODES) for _ in range(300)]
    alphabet = "0123456789.eE+-*/()[] x1_$@,tanh"
    outcomes = set()
    for text, declared in texts:
        at = int(rng.integers(len(text) + 1))
        char = alphabet[int(rng.integers(len(alphabet)))]
        cut = int(rng.integers(0, 2))  # insert or replace
        mutated = text[:at] + char + text[at + cut:]
        got = _outcome(parse_expression, mutated, declared)
        assert got == _outcome(reference_parse, mutated, declared)
        outcomes.add(got[1] if isinstance(got, tuple) else "")
    # some mutated texts still parse, and every kind of parse error is met
    for kind in ("", "undeclared identifier", "unknown function", "expected ')'",
                 "unexpected character", "unexpected token", "unexpected trailing input",
                 "delay must be", "numeral"):
        assert any(message.startswith(kind) for message in outcomes), kind


def _load_outcome(text: str):
    """What ``load_network(text)`` builds, updates in order, or its error's
    type and message."""
    try:
        net = load_network(text)
    except NetworkError as err:
        return type(err), str(err)
    return net.name, net.nodes, net.domains, list(net.updates.items())


# what a mutation inserts into a rule: a character or a piece anywhere, or
# a term in front that folds to a division by zero, out of the float range
# or to an overflowing function ("{}" stands for the rule's own node)
_PIECES = [*"0123456789.eE+-*/()[] x1_$@,", "/0", "*1e308*1e308", "- x1 + x1"]
_FOLDS = ["1/0 + ", "exp(1e9) * ", "1e308 * 1e308 * ", "{} / ({} - {}) + ", "-(1e308 + 1e308) * ",
          "(1/0 + $) * "]


def test_network_texts_load_as_the_reference(monkeypatch):
    """Each rule is read straight into its normal form: the network, or
    the error and its message, is what reading every rule whole and then
    normalizing it gives, also where one rule's folding fails before a
    syntax error in it or in a later rule."""
    rng = np.random.default_rng(1717)
    files = [text for text in _front_end_files() if len(text) < 20_000]
    two = "network two\nnode x1 domain [-1,1]\nnode x2 domain [-1,1]\n"
    texts = [
        two + "update x1 = 1/0 + $\nupdate x2 = x2\n",  # the parse error wins
        two + "update x1 = 1/0\nupdate x2 = x2 +\n",  # so does a later rule's
        two + "update x1 = 1/0\nupdate x2 = 1e308*10\n",  # the first folding error wins
        two + "update x1 = x1 - (1e308 + 1e308) * (1/0)\nupdate x2 = -(x1 - x2) * 2\n",
        two + "update x1 = 1/0\n",  # a missing rule is reported first
    ]
    for k in range(600):
        lines = files[int(rng.integers(len(files)))].splitlines(keepends=True)
        at = int(rng.integers(len(lines)))
        if k % 10 == 0:  # a line dropped or repeated
            lines[at:at + 1] = [] if k % 20 == 0 else [lines[at]] * 2
        else:
            rules = [i for i, line in enumerate(lines) if line.startswith("update ")]
            at = rules[int(rng.integers(len(rules)))]
            line = lines[at]
            start = line.index("=") + 2
            if k % 3 == 0:
                fold = _FOLDS[int(rng.integers(len(_FOLDS)))].format(*[line.split()[1]] * 3)
                lines[at] = line[:start] + fold + line[start:]
            else:
                cut = int(rng.integers(start - 1, len(line)))
                piece = _PIECES[int(rng.integers(len(_PIECES)))]
                lines[at] = line[:cut] + piece + line[cut + int(rng.integers(0, 2)):]
        texts.append("".join(lines))
    outcomes = collections.Counter()
    for text in texts:
        got = _load_outcome(text)
        with monkeypatch.context() as patch:
            patch.setattr(network, "build_network", reference_build_network)
            assert got == _load_outcome(text)
        if got[0] is NetworkError:
            outcomes[got[1].split(" ")[0] + " " + got[1].split(" ")[1]] += 1
        else:
            outcomes["loaded"] += 1
            assert all(normalize(e) is e for _, e in got[3])
    # every kind of outcome was met: loads, syntax errors, folding errors,
    # and duplicate and missing rules
    for kind in ("loaded", "rule for", "update of", "duplicate rule", "missing rules"):
        assert outcomes[kind] > 2, (kind, outcomes)


def test_normalize_raises_the_folding_error_met_first_in_reading_order():
    e = parse_expression("(1e308 + 1e308) * (1/0)", NODES)
    with pytest.raises(EvalError, match="out of the float range"):
        normalize(e)
    assert _outcome(normalize, e) == _outcome(reference_normalize, e)


def _read_outcome(text: str, declared):
    """``_outcome`` of ``_parse_normal``, a returned folding failure read as raised."""
    got = _outcome(_parse_normal, text, frozenset(declared))
    return (EvalError, str(got), None) if type(got) is EvalError else got


def test_rules_read_into_normal_form_as_normalize_gives():
    """Reading a rule straight into its normal form gives the node that
    normalizing its parse returns, or the error that either raises, also
    where a folding fails before a syntax error or beside another failure."""
    outcomes = collections.Counter()
    for text in _front_end_files():
        for node, rule, declared in _rule_texts(text):
            if rule.isidentifier():  # the thousands of delay lines of expanded diamonds
                continue
            for prefix in _FOLDS + ["(1e308 + 1e308) * (1/0) * "]:
                mutated = prefix.format(node, node, node) + rule
                got = _read_outcome(mutated, declared)
                want = _outcome(lambda: normalize(parse_expression(mutated, declared)))
                assert got == want, mutated
                outcomes[got[1].split(" ")[0]] += 1
    # syntax errors, divisions by zero, constants out of the float range
    # and overflowing functions were all met
    assert min(outcomes[kind] for kind in ("unexpected", "division", "a", "overflow")) > 100


def test_a_repeated_group_whose_folding_fails_fails_alike_at_every_copy():
    group = "(1e308 * 1e308 + x1 - x2)"  # at least _GROUP_KEY characters: remembered
    for text in (f"{group} + {group}", f"tanh({group}) * {group}", f"x1 - sin({group}) / {group}",
                 f"x2 * ({group} + x3) - exp({group})", f"-{group} * -({group})"):
        parser = _Parser(text, frozenset(NODES), _Normal)
        got = _normal(parser.parse())
        assert type(got) is EvalError
        assert str(got) == "a constant folds to inf, out of the float range"
        want = _outcome(lambda: normalize(parse_expression(text, NODES)))
        assert _read_outcome(text, NODES) == want
        # the copies after the first were read from the memo, which holds the failure
        [(_, remembered, _)] = parser.groups[group[1:1 + _GROUP_KEY]]
        assert _normal(remembered) is got


def test_loaded_rules_are_normal():
    for text in _front_end_files():
        assert all(normalize(e) is e for e in load_network(text).updates.values())


def test_cores_are_ordered_as_their_texts():
    """Term and factor order, settled on text prefixes where they differ,
    is the order of the whole texts."""
    x1, x11, y = Var("x1"), Var("x11"), Var("y")
    tanh = functools.partial(Call, "tanh")
    cores = [x1, x11, Var("x1", 3), Var("x11", 3), y, BinOp("*", x1, y), BinOp("*", x11, y),
             Call("neg", x1), BinOp("*", Const(0.5), x1), BinOp("*", Const(0.25), x1),
             tanh(x1), tanh(Var("x1", 3)), tanh(BinOp("*", Const(0.5), x1)),
             tanh(BinOp("+", BinOp("*", Const(0.5), x1), y)), tanh(BinOp("*", Const(0.5), y)),
             BinOp("*", BinOp("+", x1, y), x1), BinOp("/", x1, y), BinOp("-", x1, y)]
    rng = np.random.default_rng(3)
    pool: list = []
    cores += [_random_tree(rng, int(rng.integers(1, 5)), pool) for _ in range(200)]
    cores = list(dict.fromkeys(cores))
    for _ in range(2000):
        sample = [cores[i] for i in rng.choice(len(cores), int(rng.integers(2, 8)), replace=False)]
        assert _ordered(sample) == sorted(sample, key=to_text)
