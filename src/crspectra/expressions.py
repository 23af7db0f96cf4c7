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
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExpressionSyntaxError,
    IndexOutOfRange,
    UnboundParameter,
    UnknownIdentifier,
)
from .jets import Jet, jet_variable

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


@dataclass(frozen=True)
class ConjVar:
    index: int


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
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
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if value == "*" else Div(node, rhs)
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
        if name == "conj":
            arg = args[0]
            if isinstance(arg, Var):
                return ConjVar(arg.index)
            if isinstance(arg, ConjVar):
                return Var(arg.index)
        return Call(name, tuple(args))


# --- analyzers -----------------------------------------------------------


def _children(node):
    if isinstance(node, (Add, Sub, Mul, Div)):
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
    if isinstance(node, (Var, ConjVar)):
        return False
    if isinstance(node, Neg):
        return _is_real(node.arg)
    if isinstance(node, (Add, Sub, Mul, Div)):
        return _is_real(node.left) and _is_real(node.right)
    if isinstance(node, PowInt):
        return _is_real(node.base)
    if isinstance(node, Call):
        if node.name in ("re", "im", "abs2"):
            return True
        if node.name == "pow":
            return _is_real(node.args[0])
        return _is_real(node.args[0])
    raise TypeError(f"unknown node {node!r}")


def _is_holomorphic(node):
    if isinstance(node, (Literal, Param, Var)):
        return True
    if isinstance(node, ConjVar):
        return False
    if isinstance(node, Neg):
        return _is_holomorphic(node.arg)
    if isinstance(node, (Add, Sub, Mul, Div)):
        return _is_holomorphic(node.left) and _is_holomorphic(node.right)
    if isinstance(node, PowInt):
        return _is_holomorphic(node.base)
    if isinstance(node, Call):
        if node.name in ("conj", "re", "im", "abs2"):
            return False
        return all(_is_holomorphic(a) for a in node.args)
    raise TypeError(f"unknown node {node!r}")


def _param_names(node, out):
    if isinstance(node, Param):
        out.add(node.name)
    elif isinstance(node, (Add, Sub, Mul, Div)):
        _param_names(node.left, out)
        _param_names(node.right, out)
    elif isinstance(node, Neg):
        _param_names(node.arg, out)
    elif isinstance(node, PowInt):
        _param_names(node.base, out)
    elif isinstance(node, Call):
        for a in node.args:
            _param_names(a, out)


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


def _prec(node):
    if isinstance(node, (Add, Sub, Neg)):
        return 1
    if isinstance(node, (Mul, Div)):
        return 2
    if isinstance(node, PowInt):
        return 3
    return 4


def _render(node, required):
    if isinstance(node, Literal):
        text = _print_literal(node.value)
        mine = 1 if text.startswith("-") else 4
    elif isinstance(node, Var):
        text, mine = f"z{node.index}", 4
    elif isinstance(node, ConjVar):
        text, mine = f"conj(z{node.index})", 4
    elif isinstance(node, Param):
        text, mine = node.name, 4
    elif isinstance(node, Add):
        text = f"{_render(node.left, 1)}+{_render(node.right, 2)}"
        mine = 1
    elif isinstance(node, Sub):
        text = f"{_render(node.left, 1)}-{_render(node.right, 2)}"
        mine = 1
    elif isinstance(node, Mul):
        text = f"{_render(node.left, 2)}*{_render(node.right, 3)}"
        mine = 2
    elif isinstance(node, Div):
        text = f"{_render(node.left, 2)}/{_render(node.right, 3)}"
        mine = 2
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


def _eval_jet(node, params, point, order):
    m = np.asarray(point).shape[-1]
    if isinstance(node, Literal):
        return Jet.constant(m, point, np.broadcast_to(
            np.asarray(node.value, dtype=np.complex128),
            np.asarray(point).shape[:-1]), order)
    if isinstance(node, Param):
        if node.name not in params:
            raise UnboundParameter(f"parameter {node.name!r} has no binding")
        return Jet.constant(m, point, np.broadcast_to(
            np.asarray(float(params[node.name]), dtype=np.complex128),
            np.asarray(point).shape[:-1]), order)
    if isinstance(node, Var):
        return jet_variable(point, node.index, "holomorphic", order)
    if isinstance(node, ConjVar):
        return jet_variable(point, node.index, "antiholomorphic", order)
    if isinstance(node, Neg):
        return -_eval_jet(node.arg, params, point, order)
    if isinstance(node, Add):
        return _eval_jet(node.left, params, point, order) + _eval_jet(
            node.right, params, point, order
        )
    if isinstance(node, Sub):
        return _eval_jet(node.left, params, point, order) - _eval_jet(
            node.right, params, point, order
        )
    if isinstance(node, Mul):
        return _eval_jet(node.left, params, point, order) * _eval_jet(
            node.right, params, point, order
        )
    if isinstance(node, Div):
        return _eval_jet(node.left, params, point, order) / _eval_jet(
            node.right, params, point, order
        )
    if isinstance(node, PowInt):
        return _eval_jet(node.base, params, point, order).pow_int(node.exponent)
    if isinstance(node, Call):
        if node.name == "pow":
            base = _eval_jet(node.args[0], params, point, order)
            s = node.args[1].value.real
            if s == int(s):
                return base.pow_int(int(s))
            return base.pow_real(s)
        arg = _eval_jet(node.args[0], params, point, order)
        if node.name == "conj":
            return arg.conj()
        if node.name == "re":
            return arg.real_part()
        if node.name == "im":
            return arg.imag_part()
        if node.name == "abs2":
            out = arg * arg.conj()
            return out.copy(is_real=True)
        if node.name == "log":
            return arg.log()
        if node.name == "exp":
            return arg.exp()
    raise TypeError(f"unknown node {node!r}")


def _eval_value(node, params, pts):
    if isinstance(node, Literal):
        return np.asarray(node.value, dtype=np.complex128)
    if isinstance(node, Param):
        if node.name not in params:
            raise UnboundParameter(f"parameter {node.name!r} has no binding")
        return np.asarray(complex(float(params[node.name])), dtype=np.complex128)
    if isinstance(node, Var):
        return pts[..., node.index - 1]
    if isinstance(node, ConjVar):
        return np.conj(pts[..., node.index - 1])
    if isinstance(node, Neg):
        return -_eval_value(node.arg, params, pts)
    if isinstance(node, Add):
        return _eval_value(node.left, params, pts) + _eval_value(node.right, params, pts)
    if isinstance(node, Sub):
        return _eval_value(node.left, params, pts) - _eval_value(node.right, params, pts)
    if isinstance(node, Mul):
        return _eval_value(node.left, params, pts) * _eval_value(node.right, params, pts)
    if isinstance(node, Div):
        return _eval_value(node.left, params, pts) / _eval_value(node.right, params, pts)
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

    @property
    def m(self):
        return self.n + 1

    def jet(self, params, point, order) -> Jet:
        """Evaluate to a jet; real-flagged when the tree is syntactically real."""
        params = params or {}
        out = _eval_jet(self.root, params, np.asarray(point, dtype=np.complex128), order)
        if self.is_real and not out.is_real:
            out = out.copy(is_real=True)
        return out

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

    def parameters(self):
        out = set()
        _param_names(self.root, out)
        return out

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

