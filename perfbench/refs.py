"""Analytic references, written from the formulas and independent of expotrans.

The exponential transform of a shape K is E(z, w) = exp(-(1/pi) int_K
dA / ((zeta - z)(conj(zeta) - conj(w)))), and 1 - E = sum b[j, k] u^(j+1)
v^(k+1) with u = 1/z, v = 1/conj(w).  The closed forms below follow from
E = 1 - R^2 u v for a centred disk, from E being multiplicative over
disjoint unions, and from the Krylov model T = u S + S* of an ellipse.
"""
from __future__ import annotations

import math

import numpy as np


def shift_matrix(order: int, c: complex) -> np.ndarray:
    """T[j, m] = C(j, m) c^(j-m): re-expands 1/(z-c)^(m+1) in powers of 1/z."""
    t = np.zeros((order, order), dtype=complex)
    for j in range(order):
        for m in range(j + 1):
            t[j, m] = math.comb(j, m) * c ** (j - m)
    return t


def moved(b: np.ndarray, center: complex = 0j, phi: float = 0.0) -> np.ndarray:
    """b of the shape rotated by phi about 0, then translated by center."""
    n = b.shape[0]
    d = np.exp(1j * phi * np.arange(n))
    out = d[:, None] * b * d.conj()[None, :]
    if center != 0:
        t = shift_matrix(n, center)
        out = t @ out @ t.conj().T
    return out


def disk_b(order: int, R: float, center: complex = 0j) -> np.ndarray:
    b = np.zeros((order, order), dtype=complex)
    b[0, 0] = R * R
    return moved(b, center)


def annulus_b(order: int, r: float, R: float, center: complex = 0j) -> np.ndarray:
    k = np.arange(order)
    return moved(np.diag((R * R - r * r) * r ** (2.0 * k)).astype(complex), center)


def weighted_disk_b(order: int, R: float, t: float, center: complex = 0j) -> np.ndarray:
    """(1 - R^2 u v)^t: b[k, k] = R^(2k+2) t (1-t)(2-t)...(k-t) / (k+1)!."""
    diag = np.zeros(order)
    num = t
    for k in range(order):
        if k:
            num *= k - t
        diag[k] = R ** (2 * k + 2) * num / math.factorial(k + 1)
    return moved(np.diag(diag).astype(complex), center)


def ellipse_gram(u: float, order: int) -> np.ndarray:
    """Krylov Gram <T*^k xi, T*^j xi> of T = u S + S* (u > 1), xi = sqrt(u^2-1) e_0.

    The model's spectrum fills the ellipse with semiaxes u + 1 and u - 1.
    """
    size = order + 2
    t = np.zeros((size, size), dtype=complex)
    idx = np.arange(size - 1)
    t[idx + 1, idx] = u
    t[idx, idx + 1] = 1.0
    tstar = t.conj().T
    v = np.zeros((order, size), dtype=complex)
    v[0, 0] = math.sqrt(u * u - 1.0)
    for k in range(1, order):
        v[k] = tstar @ v[k - 1]
    return v.conj() @ v.T


def ellipse_b(order: int, p: float, q: float, phi: float = 0.0, center: complex = 0j) -> np.ndarray:
    """Ellipse with semiaxes p > q: the u-model scaled by lam = (p - q) / 2."""
    lam = 0.5 * (p - q)
    u = (p + q) / (p - q)
    k = np.arange(order)
    scale = lam ** (k[:, None] + k[None, :] + 2.0)
    return moved(scale * ellipse_gram(u, order), center, phi)


def union_b(*parts: np.ndarray) -> np.ndarray:
    """b of a disjoint union: 1 - B = prod (1 - B_i) as double series."""
    acc = parts[0]
    for nxt in parts[1:]:
        n = acc.shape[0]
        prod = np.zeros((n, n), dtype=complex)
        # acc[p, q] u^(p+1) v^(q+1) * nxt[r, s] u^(r+1) v^(s+1) lands on [p+r+1, q+s+1]
        for p in range(n - 1):
            for q in range(n - 1):
                if acc[p, q] != 0:
                    prod[p + 1 :, q + 1 :] += acc[p, q] * nxt[: n - 1 - p, : n - 1 - q]
        acc = acc + nxt - prod
    return acc


def disk_exterior(kmax: int, center: complex) -> np.ndarray:
    """t_k of a disk around 0: conj(z) = conj(c) + R^2/(z - c) gives t_1 = conj(c)."""
    t = np.zeros(kmax, dtype=complex)
    t[0] = np.conj(center)
    return t


def ellipse_exterior(kmax: int, p: float, q: float, phi: float) -> np.ndarray:
    """Centred ellipse: the Schwarz function is (p-q)/(p+q) e^(-2i phi) z + O(1/z)."""
    t = np.zeros(kmax, dtype=complex)
    if kmax >= 2:
        t[1] = 0.5 * (p - q) / (p + q) * np.exp(-2j * phi)
    return t


def ray_disk(center: complex, R: float, d: complex) -> float:
    """Exit radius of the ray t d (|d| = 1) from 0 inside Disk(center, R)."""
    beta = (np.conj(d) * center).real
    return float(beta + math.sqrt(beta * beta - abs(center) ** 2 + R * R))


def ray_ellipse(p: float, q: float, phi: float, d: complex) -> float:
    """Exit radius of the ray t d from the centre of a rotated ellipse."""
    w = d * np.exp(-1j * phi)
    return float(1.0 / math.hypot(w.real / p, w.imag / q))


def rel_err(x: np.ndarray, ref: np.ndarray) -> float:
    """max |x - ref| over max(max |ref|, 1): normwise, floor 1 for vanishing refs."""
    x, ref = np.asarray(x), np.asarray(ref)
    return float(np.abs(x - ref).max() / max(float(np.abs(ref).max()), 1.0))
