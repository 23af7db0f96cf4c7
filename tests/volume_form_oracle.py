"""The contact volume form evaluated on tangent vectors: a test oracle for the
quadrature density.

theta ^ (d theta)^n, with theta = (i/2)(dbar rho - d rho), is evaluated on
2n+1 real tangent vectors of M through a Pfaffian expansion.  The tangents
are pushed forward to the radial graph p = t(u) u from a basis of the
tangent space of the unit sphere at the direction u: the Hopf coordinate
fields (eta, phi1, phi2) at m = 2, or an orthonormal Householder basis at
any m.  Dividing by the area the basis spans gives the density per unit
area of the sphere of directions.  Nothing here reads the Fefferman
determinant J.
"""

import math

import numpy as np

from crspectra.frames import build_frame


def pfaffian(a):
    """Pfaffian of an even antisymmetric matrix (recursive expansion)."""
    a = np.asarray(a)
    k = a.shape[-1]
    if k % 2:
        raise ValueError("Pfaffian needs even size")
    if k == 0:
        return np.ones(a.shape[:-2])
    if k == 2:
        return a[..., 0, 1]
    if k == 4:
        return (
            a[..., 0, 1] * a[..., 2, 3]
            - a[..., 0, 2] * a[..., 1, 3]
            + a[..., 0, 3] * a[..., 1, 2]
        )
    total = 0.0
    for j in range(1, k):
        rest = [i for i in range(1, k) if i != j]
        minor = a[..., rest, :][..., :, rest]
        total = total + (-1.0) ** (j + 1) * a[..., 0, j] * pfaffian(minor)
    return total


def form_value(grad, hess, tangents, n):
    """theta ^ (d theta)^n evaluated on 2n+1 tangent vectors (signed)."""
    theta = np.einsum("...j,...kj->...k", grad, tangents).imag
    s = np.einsum("...ab,...ia,...jb->...ij", hess, tangents, np.conj(tangents))
    b = -2.0 * s.imag
    k = tangents.shape[-2]
    total = 0.0
    for drop in range(k):
        keep = [i for i in range(k) if i != drop]
        minor = b[..., keep, :][..., :, keep]
        total = total + (-1.0) ** drop * theta[..., drop] * pfaffian(minor)
    return math.factorial(n) * total


def hopf_tangents(dirs):
    """Tangents (P, 3, 2) of z1 = cos(eta) e^{i phi1}, z2 = sin(eta) e^{i phi2}
    along (eta, phi1, phi2) at unit directions (P, 2), and the area element
    cos(eta) sin(eta) of S^3 in those coordinates."""
    c, s = np.abs(dirs[:, 0]), np.abs(dirs[:, 1])
    e1, e2 = dirs[:, 0] / c, dirs[:, 1] / s
    zero = np.zeros_like(e1)
    du_eta = np.stack([-s * e1, c * e2], axis=-1)
    du_p1 = np.stack([1j * dirs[:, 0], zero], axis=-1)
    du_p2 = np.stack([zero, 1j * dirs[:, 1]], axis=-1)
    return np.stack([du_eta, du_p1, du_p2], axis=1), c * s


def householder_tangents(dirs):
    """Orthonormal bases (P, 2m-1, m) of the tangent spaces of the unit sphere
    at unit directions (P, m), from the Householder reflector that sends the
    first real axis to the direction, and their area element 1."""
    real = np.empty(dirs.shape[:-1] + (2 * dirs.shape[-1],))
    real[:, 0::2], real[:, 1::2] = dirs.real, dirs.imag
    P, d = real.shape
    sign = np.where(real[:, 0] >= 0, 1.0, -1.0)
    v = real.copy()
    v[:, 0] += sign
    vn = np.einsum("pi,pi->p", v, v)
    # columns 1..d-1 of the Householder reflector I - 2 v v^T / (v.v)
    basis = np.broadcast_to(np.eye(d)[None, :, 1:], (P, d, d - 1)).copy()
    basis -= 2.0 * v[:, :, None] * (v[:, None, 1:] / vn[:, None, None])
    basis = np.swapaxes(basis, 1, 2)
    return basis[..., 0::2] + 1j * basis[..., 1::2], np.ones(P)


def push_forward(grad, points, du):
    """Tangent vectors V = t' u + t du of the radial graph p = t(u) u, with
    drho(V) = 0, for each direction tangent ``du`` (P, k, m) at u = p / |p|."""
    t = np.linalg.norm(points, axis=-1)
    dirs = points / t[:, None]
    slope_u = 2.0 * np.einsum("pj,pj->p", grad, dirs).real
    slope_d = 2.0 * np.einsum("pj,pkj->pk", grad, du).real
    tprime = -t[:, None] * slope_d / slope_u[:, None]
    return tprime[:, :, None] * dirs[:, None, :] + t[:, None, None] * du


def tangents_at(rho, points, params=None, basis=householder_tangents):
    """The pushed-forward tangents (P, 2n+1, m) at on-surface points and the
    area element of the direction basis they come from."""
    points = np.asarray(points, dtype=np.complex128)
    frame = build_frame(rho, points, params=params)
    du, area = basis(points / np.linalg.norm(points, axis=-1)[:, None])
    return push_forward(np.moveaxis(frame.grad, 0, -1), points, du), area


def form_on(rho, points, tangents, params=None):
    """|theta ^ (d theta)^n| of rho on tangent vectors at on-surface points."""
    frame = build_frame(rho, points, params=params)
    grad, hess = np.moveaxis(frame.grad, 0, -1), np.moveaxis(frame.hessian, (0, 1), (-2, -1))
    return np.abs(form_value(grad, hess, tangents, frame.n))


def density(rho, points, params=None, basis=householder_tangents):
    """|theta ^ (d theta)^n| per unit area of the sphere of directions."""
    tangents, area = tangents_at(rho, points, params, basis)
    return form_on(rho, points, tangents, params) / area
