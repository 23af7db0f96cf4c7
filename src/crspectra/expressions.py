"""Parser and evaluators for defining-function expressions.

Grammar (EBNF):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' int)?
    atom   := number | 'i' | ident | ident '(' expr (',' expr)* ')'
            | '(' expr ')' | '-' atom

Identifiers ``z1`` .. ``z9`` are coordinates; ``i`` is the imaginary unit;
``conj, re, im, abs2, log, exp, pow`` are functions; every other identifier
is a named real parameter.  ``pow(e, s)`` takes a numeric literal exponent
(integer or real).  There is no implicit multiplication.  Numeric literals
must be finite floats, and expression trees may nest at most ``MAX_DEPTH``
levels (parentheses, unary minus, calls and operator chains all count), so
the recursive evaluators and printer stay within Python's recursion limit.

A parsed tree has seven node shapes: ``Literal(value)``, ``Var(index,
conj)`` (``z_j``, or ``conj(z_j)`` when ``conj``, to which the parser folds
a conjugated coordinate), ``Param(name)``, ``BinOp(op, left, right)`` with
``op`` one of ``+-*/``, ``Neg(arg)``, ``PowInt(base, exponent)`` and
``Call(name, args)`` for the functions above.

``Expression.jet`` runs a program lowered once per variable count and order
and cached on the expression: a flat list of jet ops, each holding only the
rows of its static support (the terms the tree lets be nonzero).  Its
products and series compositions run the kernel of ``jets`` on those
supports, the one that ``Jet`` products and ``Jet.exp`` run on full ones.
``Expression.value`` is a separate plain complex evaluator: it also accepts a
complex ``log``/``pow`` base, which jets refuse.  ``Expression.charges``
reads the torus charges off the tree, once per expression: the rotations
z_j -> e^{i t_j} z_j that fix the function, read without evaluating it.
"""

from __future__ import annotations

import math
import operator
import re as _re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ExpressionSyntaxError,
    IndexOutOfRange,
    UnboundParameter,
    UnknownIdentifier,
)
from .jets import (
    Jet,
    exp_series,
    horner,
    jet_space,
    log_series,
    pow_series,
    product,
    reciprocal_series,
)

FUNCTIONS = ("conj", "re", "im", "abs2", "log", "exp", "pow")

_COORD_RE = _re.compile(r"^z[1-9]$")

# far above any expression a defining function needs; the parser spends up
# to five frames per nested call, so 100 levels stay well inside Python's
# default recursion limit of 1000 frames
MAX_DEPTH = 100


# --- AST nodes -----------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: complex


@dataclass(frozen=True)
class Var:
    index: int  # 1-based
    conj: bool = False


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of "+-*/"
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class PowInt:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


# --- tokenizer -----------------------------------------------------------

_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise ExpressionSyntaxError(
                f"unexpected character {text[pos:].lstrip()[0]!r}",
                len(text) - len(text[pos:].lstrip()),
            )
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, n):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(f"expected {op!r}", offset)
        return self.advance()

    def enter(self, offset):
        """Count one level of parser recursion (a group, unary minus or call)."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", offset
            )

    def parse(self):
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing input {value!r}", offset)
        if _height(node) > MAX_DEPTH:
            # operator chains build trees as deep as they are long
            raise ExpressionSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", 0
            )
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, offset = self.peek()
            if kind != "number" or not _re.fullmatch(r"\d+", value):
                raise ExpressionSyntaxError("exponent must be an integer", offset)
            self.advance()
            node = PowInt(node, int(value))
        return node

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "number":
            number = float(value)
            if math.isinf(number):
                raise ExpressionSyntaxError(
                    f"numeric literal {value} overflows a float", offset
                )
            return Literal(complex(number))
        if kind == "op" and value in "-(":
            self.enter(offset)
            if value == "-":
                node = Neg(self.atom())
            else:
                node = self.expr()
                self.expect_op(")")
            self.nesting -= 1
            return node
        if kind == "ident":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                return self.call(value, offset)
            if value == "i":
                return Literal(1j)
            if _COORD_RE.match(value):
                index = int(value[1:])
                if index > self.n + 1:
                    raise IndexOutOfRange(
                        f"coordinate {value} exceeds n+1 = {self.n + 1} "
                        f"(byte offset {offset})"
                    )
                return Var(index)
            return Param(value)
        raise ExpressionSyntaxError(f"unexpected token {value!r}", offset)

    def call(self, name, offset):
        if name not in FUNCTIONS:
            raise UnknownIdentifier(
                f"unknown function {name!r} (byte offset {offset})"
            )
        self.expect_op("(")
        self.enter(offset)
        args = [self.expr()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == ",":
                self.advance()
                args.append(self.expr())
            else:
                break
        self.expect_op(")")
        self.nesting -= 1
        if name == "pow":
            if len(args) != 2:
                raise ExpressionSyntaxError("pow takes two arguments", offset)
            exponent = args[1]
            if isinstance(exponent, Neg) and isinstance(exponent.arg, Literal):
                exponent = Literal(-exponent.arg.value)
            if not isinstance(exponent, Literal) or exponent.value.imag != 0.0:
                raise ExpressionSyntaxError(
                    "pow exponent must be a real numeric literal", offset
                )
            args = [args[0], exponent]
        elif len(args) != 1:
            raise ExpressionSyntaxError(f"{name} takes one argument", offset)
        if name == "conj" and isinstance(args[0], Var):
            return Var(args[0].index, not args[0].conj)
        return Call(name, tuple(args))


# --- analyzers -----------------------------------------------------------


def _children(node):
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Neg):
        return (node.arg,)
    if isinstance(node, PowInt):
        return (node.base,)
    if isinstance(node, Call):
        return node.args
    return ()


def _height(root):
    """Levels of the tree, counted without recursion."""
    height = 0
    stack = [(root, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        stack.extend((child, level + 1) for child in _children(node))
    return height


def _is_real(node):
    if isinstance(node, Literal):
        return node.value.imag == 0.0
    if isinstance(node, Param):
        return True
    if isinstance(node, Var):
        return False
    if isinstance(node, Neg):
        return _is_real(node.arg)
    if isinstance(node, BinOp):
        return _is_real(node.left) and _is_real(node.right)
    if isinstance(node, PowInt):
        return _is_real(node.base)
    if isinstance(node, Call):
        if node.name in ("re", "im", "abs2"):
            return True
        return _is_real(node.args[0])
    raise TypeError(f"unknown node {node!r}")


def _is_holomorphic(node):
    if isinstance(node, (Literal, Param)):
        return True
    if isinstance(node, Var):
        return not node.conj
    if isinstance(node, Neg):
        return _is_holomorphic(node.arg)
    if isinstance(node, BinOp):
        return _is_holomorphic(node.left) and _is_holomorphic(node.right)
    if isinstance(node, PowInt):
        return _is_holomorphic(node.base)
    if isinstance(node, Call):
        if node.name in ("conj", "re", "im", "abs2"):
            return False
        return all(_is_holomorphic(a) for a in node.args)
    raise TypeError(f"unknown node {node!r}")


# a product or power builds its charge set only up to this many charges; a
# larger one is carried as lattice generators instead
MAX_CHARGES = 256


def _charge_sum(a, b):
    """The charge pair of the product of two nodes with charge pairs a, b."""
    (ca, ga), (cb, gb) = a, b
    if len(ca) * len(cb) > MAX_CHARGES:
        zero = tuple(0 for _ in next(iter(ca)))
        return frozenset({zero}), ga | gb | ca | cb
    return frozenset(tuple(x + y for x, y in zip(p, q)) for p in ca for q in cb), ga | gb


def _charges(node, m):
    """(C, G): the torus charges of ``node`` lie in C + L(G), L(G) the lattice
    spanned by G.  A function of z expands along the torus orbits
    z -> (e^{i t_1} z_1, ..., e^{i t_m} z_m) in characters e^{i k.t}; k is a
    charge.  z_j has {e_j}, conj negates, + and - unite, * is the Minkowski
    sum, re and im add the negation and abs2 sums the set with its negation,
    so abs2(z1) has {0}.  exp, log, pow and / send the union of their
    arguments' sets to G: their series reach the whole lattice, and a later
    product must not cancel what it reaches.  Nothing is read off numbers,
    so the pair is conservative (0*z1 keeps e_1)."""
    if isinstance(node, (Literal, Param)):
        return frozenset({(0,) * m}), frozenset()
    if isinstance(node, Var):
        sign = -1 if node.conj else 1
        return frozenset({tuple(sign * (j == node.index - 1) for j in range(m))}), frozenset()
    if isinstance(node, Neg):
        return _charges(node.arg, m)
    if isinstance(node, BinOp) and node.op in "+-*":
        a, b = _charges(node.left, m), _charges(node.right, m)
        if node.op == "*":
            return _charge_sum(a, b)
        return a[0] | b[0], a[1] | b[1]
    if isinstance(node, PowInt):
        base, k = _charges(node.base, m), node.exponent
        out = frozenset({(0,) * m}), frozenset()
        while k:
            if k & 1:
                out = _charge_sum(out, base)
            k >>= 1
            if k:
                base = _charge_sum(base, base)
        return out
    if isinstance(node, Call) and node.name in ("conj", "re", "im", "abs2"):
        c, g = _charges(node.args[0], m)
        neg = frozenset(tuple(-x for x in k) for k in c)
        if node.name == "conj":
            return neg, g
        if node.name == "abs2":
            return _charge_sum((c, g), (neg, g))
        return c | neg, g
    if isinstance(node, (Call, BinOp)):  # exp, log, pow and /
        args = node.args if isinstance(node, Call) else (node.left, node.right)
        spans = [c | g for c, g in (_charges(arg, m) for arg in args)]
        return frozenset({(0,) * m}), frozenset().union(*spans)
    raise TypeError(f"unknown node {node!r}")


# --- printer -------------------------------------------------------------


def _num_str(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _print_literal(value: complex) -> str:
    if value.imag == 0.0:
        if value.real < 0:
            return f"-{_num_str(-value.real)}"
        return _num_str(value.real)
    if value == 1j:
        return "i"
    re_s = _print_literal(complex(value.real))
    im_s = _print_literal(complex(value.imag))
    return f"({re_s}+{im_s}*i)"


def _render(node, required):
    if isinstance(node, Literal):
        text = _print_literal(node.value)
        mine = 1 if text.startswith("-") else 4
    elif isinstance(node, Var):
        text, mine = f"conj(z{node.index})" if node.conj else f"z{node.index}", 4
    elif isinstance(node, Param):
        text, mine = node.name, 4
    elif isinstance(node, BinOp):
        # + and - bind at level 1, * and / at 2; a right operand needs a level
        # more, as the chains associate to the left
        mine = 1 if node.op in "+-" else 2
        text = f"{_render(node.left, mine)}{node.op}{_render(node.right, mine + 1)}"
    elif isinstance(node, Neg):
        text = f"-{_render(node.arg, 4)}"
        mine = 1
    elif isinstance(node, PowInt):
        text = f"{_render(node.base, 4)}^{node.exponent}"
        mine = 3
    elif isinstance(node, Call):
        args = ",".join(_render(a, 1) for a in node.args)
        text, mine = f"{node.name}({args})", 4
    else:
        raise TypeError(f"unknown node {node!r}")
    if mine < required:
        return f"({text})"
    return text


# --- evaluators ----------------------------------------------------------


def _full(point, value):
    """A single row holding ``value`` at every base point."""
    return np.full((1,) + point.shape[:-1], value, dtype=np.complex128)


class _JetProgram:
    """The jet ops of one expression at one variable count and order.

    The tree is lowered once into a flat list of ops and then run on any
    batch of base points.  Each op yields one slot: the rows of an
    intermediate jet at its static support, the sorted terms that can be
    nonzero, as an array of shape ``(len(support), *batch)``.  Every other
    term is exactly 0, so a product multiplies only the pairs of
    ``JetSpace.mul_table`` whose two factors lie in the operand supports,
    and the pairs never depend on the batch.  An op with no input slots
    reads the parameters and base points.
    """

    def __init__(self, root, m, order):
        self.space = jet_space(m, order)
        self.steps = []
        self.supports = []
        self.reals = []
        self.root = self._lower(root)
        # release each slot after its last use
        last = {j: k for k, (_, ins) in enumerate(self.steps) for j in ins}
        frees = [[] for _ in self.steps]
        for j, k in last.items():
            frees[k].append(j)
        self.steps = [(fn, ins, tuple(free)) for (fn, ins), free in zip(self.steps, frees)]

    def run(self, params, point):
        """The dense jet of the expression at ``point``, shape ``(..., m)``."""
        # the batch runs flattened, a lone point as a batch of one: numpy
        # rounds scalar powers differently from its array loops, and each
        # point's jet must not depend on the batch it comes in
        flat = point.reshape(-1, point.shape[-1])
        vals = [None] * len(self.steps)
        for k, (fn, ins, frees) in enumerate(self.steps):
            vals[k] = fn(*[vals[j] for j in ins]) if ins else fn(params, flat)
            for j in frees:
                vals[j] = None
        rows, support = vals[self.root], self.supports[self.root]
        if len(support) == self.space.n_terms:
            coeffs = rows  # every op returns a fresh array
        else:
            coeffs = np.zeros((self.space.n_terms, flat.shape[0]), dtype=np.complex128)
            coeffs[list(support)] = rows
        coeffs = coeffs.reshape((self.space.n_terms,) + point.shape[:-1])
        return Jet(self.space, point, coeffs, self.reals[self.root])

    # --- lowering ----------------------------------------------------------

    def _emit(self, fn, ins, support, real):
        self.steps.append((fn, ins))
        self.supports.append(tuple(support))
        self.reals.append(bool(real))
        return len(self.steps) - 1

    def _lower(self, node):
        if isinstance(node, Literal):
            value = node.value
            return self._emit(lambda params, point: _full(point, value), (), (0,),
                              value.imag == 0.0)
        if isinstance(node, Param):
            name = node.name

            def param(params, point):
                if name not in params:
                    raise UnboundParameter(f"parameter {name!r} has no binding")
                return _full(point, float(params[name]))

            return self._emit(param, (), (0,), True)
        if isinstance(node, Var):
            return self._variable(node)
        if isinstance(node, Neg):
            a = self._lower(node.arg)
            return self._emit(np.negative, (a,), self.supports[a], self.reals[a])
        if isinstance(node, BinOp):
            a, b = self._lower(node.left), self._lower(node.right)
            if node.op in "+-":
                return self._add(a, b, subtract=node.op == "-")
            return self._mul(a, self._reciprocal(b) if node.op == "/" else b)
        if isinstance(node, PowInt):
            return self._pow_int(self._lower(node.base), node.exponent)
        if isinstance(node, Call):
            a = self._lower(node.args[0])
            real, order = self.reals[a], self.space.order
            if node.name == "pow":
                s = node.args[1].value.real
                if s == int(s):
                    return self._pow_int(a, int(s))
                return self._series(a, lambda c: pow_series(c, real, s, order), True)
            if node.name == "conj":
                return self._conj(a)
            if node.name == "re":
                out = self._scale(self._add(a, self._conj(a)), 0.5)
                self.reals[out] = True
                return out
            if node.name == "im":
                out = self._scale(self._add(a, self._conj(a), subtract=True),
                                  complex(0.0, -0.5))
                self.reals[out] = True
                return out
            if node.name == "abs2":
                out = self._mul(a, self._conj(a))
                self.reals[out] = True
                return out
            if node.name == "log":
                return self._series(a, lambda c: log_series(c, real, order), True)
            if node.name == "exp":
                return self._series(a, lambda c: exp_series(c, order), real)
        raise TypeError(f"unknown node {node!r}")

    def _variable(self, node):
        m = self.space.m
        if not 1 <= node.index <= m:
            raise IndexOutOfRange(f"coordinate index {node.index} out of range 1..{m}")
        j = node.index - 1
        holo = not node.conj
        if self.space.order == 0:
            support = (0,)
        else:
            index = self.space.holo_index if holo else self.space.dbar_index
            support = (0, int(index[j]))

        def variable(params, point):
            rows = np.empty((len(support),) + point.shape[:-1], dtype=np.complex128)
            rows[0] = point[..., j] if holo else np.conj(point[..., j])
            rows[1:] = 1.0
            return rows

        return self._emit(variable, (), support, False)

    def _add(self, a, b, subtract=False):
        sa, sb = self.supports[a], self.supports[b]
        real = self.reals[a] and self.reals[b]
        if sa == sb:
            return self._emit(np.subtract if subtract else np.add, (a, b), sa, real)
        support = sorted(set(sa) | set(sb))
        at = {term: k for k, term in enumerate(support)}
        ia = [at[t] for t in sa]
        ib = [at[t] for t in sb]

        def scatter(x, y):
            out = np.zeros((len(support),) + x.shape[1:], dtype=np.complex128)
            out[ia] = x
            if subtract:
                out[ib] -= y
            else:
                out[ib] += y
            return out

        return self._emit(scatter, (a, b), support, real)

    def _scale(self, a, s):
        return self._emit(lambda x: x * s, (a,), self.supports[a], self.reals[a])

    def _conj(self, a):
        sa = self.supports[a]
        perm = self.space.conj_perm
        support = sorted(int(perm[t]) for t in sa)
        at = {term: k for k, term in enumerate(sa)}
        src = [at[int(perm[t])] for t in support]
        return self._emit(lambda x: np.conj(x[src]), (a,), support, self.reals[a])

    def _mul(self, a, b):
        plan = self.space.product_plan(self.supports[a], self.supports[b])
        return self._emit(lambda x, y: product(x, y, plan), (a, b),
                          plan[3], self.reals[a] and self.reals[b])

    def _pow_int(self, a, k):
        """a^k by repeated squaring (through the reciprocal for k < 0)."""
        if k < 0:
            return self._pow_int(self._reciprocal(a), -k)
        if k == 0:
            return self._emit(lambda params, point: _full(point, 1.0), (), (0,), True)
        result, base = None, a
        while k:
            if k & 1:
                result = base if result is None else self._mul(result, base)
            k >>= 1
            if k:
                base = self._mul(base, base)
        return result

    def _reciprocal(self, a):
        order = self.space.order
        return self._series(a, lambda c: reciprocal_series(c, order), self.reals[a])

    def _series(self, a, coefficients, real):
        """f(a) as sum_k series[k] (a - a0)^k by ``jets.horner``, where
        ``coefficients(a0)`` checks a0 and returns the series."""
        # every support holds the constant term 0 first
        plans, support = self.space.series_plans(self.supports[a][1:])
        return self._emit(lambda x: horner(coefficients(x[0]), x[1:], plans), (a,),
                          support, real)


_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _eval_value(node, params, pts):
    if isinstance(node, Literal):
        return np.asarray(node.value, dtype=np.complex128)
    if isinstance(node, Param):
        if node.name not in params:
            raise UnboundParameter(f"parameter {node.name!r} has no binding")
        return np.asarray(complex(float(params[node.name])), dtype=np.complex128)
    if isinstance(node, Var):
        z = pts[..., node.index - 1]
        return np.conj(z) if node.conj else z
    if isinstance(node, Neg):
        return -_eval_value(node.arg, params, pts)
    if isinstance(node, BinOp):
        return _BINOPS[node.op](_eval_value(node.left, params, pts),
                                _eval_value(node.right, params, pts))
    if isinstance(node, PowInt):
        return _eval_value(node.base, params, pts) ** node.exponent
    if isinstance(node, Call):
        if node.name == "pow":
            base = _eval_value(node.args[0], params, pts)
            s = node.args[1].value.real
            if s == int(s):
                return base ** int(s)
            return np.power(base, s)
        arg = _eval_value(node.args[0], params, pts)
        if node.name == "conj":
            return np.conj(arg)
        if node.name == "re":
            return arg.real.astype(np.complex128)
        if node.name == "im":
            return arg.imag.astype(np.complex128)
        if node.name == "abs2":
            return arg * np.conj(arg)
        if node.name == "log":
            return np.log(arg)
        if node.name == "exp":
            return np.exp(arg)
    raise TypeError(f"unknown node {node!r}")


# --- public wrapper ------------------------------------------------------


class Expression:
    """A parsed expression bound to an ambient dimension n (coordinates z1..z{n+1})."""

    def __init__(self, root, n):
        self.root = root
        self.n = int(n)
        # jet programs by (m, order), each lowered on first use.  crspectra
        # runs on one thread; a caller's threads racing here may lower a
        # program twice, but store it only when complete
        self._programs = {}

    @property
    def m(self):
        return self.n + 1

    def jet(self, params, point, order) -> Jet:
        """Evaluate to a jet; real-flagged when the tree is syntactically real."""
        params = params or {}
        point = np.asarray(point, dtype=np.complex128)
        key = (point.shape[-1], order)
        program = self._programs.get(key)
        if program is None:
            program = _JetProgram(self.root, *key)
            self._programs[key] = program
        # an overflow leaves inf or NaN in the jet, which its readers refuse
        # (a non-finite A0 is a DegenerateFrame)
        with np.errstate(over="ignore", invalid="ignore"):
            return program.run(params, point)

    def value(self, params, pts):
        """Plain complex evaluation, broadcasting over points of shape (..., m)."""
        params = params or {}
        pts = np.asarray(pts, dtype=np.complex128)
        out = _eval_value(self.root, params, pts)
        return np.broadcast_to(out, pts.shape[:-1]).copy() if out.shape != pts.shape[:-1] else out

    @property
    def is_real(self):
        return _is_real(self.root)

    @property
    def holomorphic(self):
        return _is_holomorphic(self.root)

    @cached_property
    def charges(self):
        """The torus charges read off the tree (``_charges``), as a frozenset
        of m-tuples: every torus rotation z -> (e^{i t_j} z_j) with k.t in
        2 pi Z for each charge k leaves the function unchanged."""
        return frozenset.union(*_charges(self.root, self.m))

    def __str__(self):
        return _render(self.root, 1)

    def __repr__(self):
        return f"Expression({str(self)!r}, n={self.n})"

    def __eq__(self, other):
        return (
            isinstance(other, Expression)
            and self.n == other.n
            and self.root == other.root
        )

    def __hash__(self):
        return hash((str(self), self.n))


def parse(text: str, n: int) -> Expression:
    """Parse an expression in coordinates z1..z{n+1} with named real parameters."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return Expression(_Parser(text, n).parse(), n)

