"""A dense reference jet algebra: a test oracle for the shared jet kernel.

``DenseJet`` holds every Taylor coefficient and composes jets the plain way:
a product is the full convolution over ``JetSpace.mul_table``, and a series
composition is Horner's rule on whole dense jets.  It calls neither
``jets.product`` nor ``jets.horner``, so the expression programs and the
``Jet`` product and ``exp`` that run that kernel are checked against
arithmetic they do not share.  Only the index tables and the series
coefficients come from the library.
"""

import numpy as np

from crspectra.errors import DivisionByZeroJet, IndexOutOfRange, JetOrderError
from crspectra.jets import (
    DIV_TOL,
    MAX_ORDER,
    exp_series,
    jet_space,
    log_series,
    pow_series,
    reciprocal_series,
)


class DenseJet:
    """A truncated Taylor expansion with the full operator algebra."""

    __slots__ = ("space", "point", "coeffs", "is_real")

    def __init__(self, space, point, coeffs, is_real=False):
        self.space = space
        self.point = np.asarray(point, dtype=np.complex128)
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)
        self.is_real = bool(is_real)

    @classmethod
    def of(cls, jet):
        """The reference copy of a library ``Jet``."""
        return cls(jet.space, jet.point, jet.coeffs, jet.is_real)

    @classmethod
    def constant(cls, m, point, value, order=MAX_ORDER):
        space = jet_space(m, order)
        point = np.asarray(point, dtype=np.complex128)
        value = np.asarray(value, dtype=np.complex128)
        coeffs = np.zeros((space.n_terms,) + point.shape[:-1], dtype=np.complex128)
        coeffs[0] = value
        return cls(space, point, coeffs, is_real=bool(np.all(value.imag == 0.0)))

    @classmethod
    def variable(cls, point, index, kind, order=MAX_ORDER):
        """The coordinate z_index (1-based), or its conjugate when ``kind`` is
        'antiholomorphic'."""
        point = np.asarray(point, dtype=np.complex128)
        m = point.shape[-1]
        if not 1 <= index <= m:
            raise IndexOutOfRange(f"coordinate index {index} out of range 1..{m}")
        holo = kind == "holomorphic"
        space = jet_space(m, order)
        coeffs = np.zeros((space.n_terms,) + point.shape[:-1], dtype=np.complex128)
        value = point[..., index - 1]
        coeffs[0] = value if holo else np.conj(value)
        if order >= 1:
            index_table = space.holo_index if holo else space.dbar_index
            coeffs[index_table[index - 1]] = 1.0
        return cls(space, point, coeffs, is_real=False)

    @property
    def order(self):
        return self.space.order

    @property
    def m(self):
        return self.space.m

    def copy(self, is_real):
        return DenseJet(self.space, self.point, self.coeffs, is_real)

    def constant_term(self):
        return self.coeffs[0]

    def conj(self):
        return DenseJet(self.space, self.point,
                        np.conj(self.coeffs[self.space.conj_perm]), self.is_real)

    def hermitized(self):
        coeffs = 0.5 * (self.coeffs + np.conj(self.coeffs[self.space.conj_perm]))
        return DenseJet(self.space, self.point, coeffs, True)

    def reality_defect(self):
        return float(np.max(np.abs(self.coeffs - np.conj(self.coeffs[self.space.conj_perm]))))

    # --- ring operations ---------------------------------------------------

    def _check_compatible(self, other):
        if self.space is not other.space:
            raise JetOrderError("jet mismatch: operands must share variable count and order")
        if self.point.shape != other.point.shape or not np.array_equal(self.point, other.point):
            raise JetOrderError("jet mismatch: operands must share the base point")

    def _with(self, coeffs, is_real):
        return DenseJet(self.space, self.point, coeffs, is_real)

    def __add__(self, other):
        if isinstance(other, DenseJet):
            self._check_compatible(other)
            return self._with(self.coeffs + other.coeffs, self.is_real and other.is_real)
        s = complex(other)
        coeffs = self.coeffs.copy()
        coeffs[0] = coeffs[0] + s
        return self._with(coeffs, self.is_real and s.imag == 0.0)

    __radd__ = __add__

    def __neg__(self):
        return self._with(-self.coeffs, self.is_real)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, DenseJet):
            self._check_compatible(other)
            i1, i2, out = self.space.mul_table()
            starts = np.flatnonzero(np.diff(out, prepend=-1))
            coeffs = np.add.reduceat(self.coeffs[i1] * other.coeffs[i2], starts, axis=0)
            return self._with(coeffs, self.is_real and other.is_real)
        s = complex(other)
        return self._with(self.coeffs * s, self.is_real and s.imag == 0.0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DenseJet):
            return self * other.reciprocal()
        s = complex(other)
        if abs(s) < DIV_TOL:
            raise DivisionByZeroJet("division by zero scalar")
        return self * (1.0 / s)

    def pow_int(self, k):
        """f^k by repeated squaring."""
        if k < 0:
            return self.reciprocal().pow_int(-k)
        result = DenseJet.constant(self.m, self.point, np.ones(self.coeffs.shape[1:]),
                                   self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # --- series compositions -------------------------------------------------

    def horner(self, series):
        """sum_k series[k] (f - f0)^k on whole dense jets."""
        h = self.coeffs.copy()
        h[0] = 0.0
        h = self._with(h, self.is_real)
        acc = DenseJet.constant(self.m, self.point, series[-1], self.order)
        for k in range(len(series) - 2, -1, -1):
            acc = acc * h
            acc.coeffs[0] += series[k]
        return acc

    def reciprocal(self):
        return self.horner(reciprocal_series(self.constant_term(), self.order)).copy(
            self.is_real)

    def log(self):
        return self.horner(log_series(self.constant_term(), self.is_real, self.order)).copy(
            True)

    def exp(self):
        return self.horner(exp_series(self.constant_term(), self.order)).copy(self.is_real)

    def pow_real(self, s):
        return self.horner(
            pow_series(self.constant_term(), self.is_real, s, self.order)).copy(True)

    def real_part(self):
        return ((self + self.conj()) * 0.5).copy(True)

    def imag_part(self):
        return ((self - self.conj()) * complex(0.0, -0.5)).copy(True)
