"""Every point of a quadrature rule's grid, for the tests.

A ``QuadratureRule`` holds one point per torus orbit; these helpers rebuild
the grid it stands for, point by point, as the reference for sums over the
rule: the hopf_product grid from a full (eta, phi1, phi2) meshgrid, a rule
built on it with one-point orbits, and a rule's orbits spelled out.
"""

import numpy as np

from crspectra.frames import build_frame
from crspectra.quadrature import QuadratureRule, project_rays


def hopf_directions(R):
    """Unit directions of the hopf_product grid, point index i R^2 + j1 R +
    j2 for (eta_i, phi1 = 2 pi j1 / R, phi2 = 2 pi j2 / R), and their weights
    in the area of the unit sphere S^3, whose element is cos(eta) sin(eta)
    d eta d phi1 d phi2."""
    x, wx = np.polynomial.legendre.leggauss(R)
    eta = 0.25 * np.pi * (x + 1.0)
    weta = 0.25 * np.pi * wx * np.cos(eta) * np.sin(eta)
    phi = 2.0 * np.pi * np.arange(R) / R
    wphi = 2.0 * np.pi / R

    E, P1, P2 = np.meshgrid(eta, phi, phi, indexing="ij")
    e, p1, p2 = E.ravel(), P1.ravel(), P2.ravel()
    dirs = np.stack([np.cos(e) * np.exp(1j * p1), np.sin(e) * np.exp(1j * p2)], axis=-1)
    base = np.repeat(weta, R * R) * wphi * wphi
    return dirs, base


def per_point_rule(rho, settings, dirs, base):
    """The rule built without orbits: every ray projected, the frame built
    at every point, the one shift 0."""
    points = project_rays(rho, None, dirs)[:, None] * dirs
    return QuadratureRule(settings, rho, None, points, base, np.zeros((rho.m, 1), dtype=np.intp),
                          build_frame(rho, points))


def every_point(rule):
    """Every point of the rule's orbits, each representative rotated by each
    of its shifts, and each point's own weight, base weight times density."""
    m, count = rule.points.shape[1], rule.shifts.shape[1]
    phase = np.exp(2j * np.pi * rule.shifts.T / rule.settings.resolution)
    points = (rule.points[:, None] * phase).reshape(-1, m)
    return points, np.repeat(rule.base_weights * rule.density, count)
