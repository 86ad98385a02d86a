"""Minimal five-point essential-matrix solver.

Follows the classical construction: a 4-dimensional nullspace basis of the
epipolar constraints, the ten cubic polynomial constraints (det E = 0 and the
trace constraint 2 E E^T E - tr(E E^T) E = 0) over E = x E1 + y E2 + z E3 + E4,
and a degree-10 univariate root solve in z. The root solve is phrased as a
generalized (QZ) eigenproblem of the hidden-variable pencil
C0 + z C1 + z^2 C2 + z^3 C3 acting on the ten (x, y)-monomials; its finite
eigenvalues are the roots of the degree-10 determinant polynomial. Spurious
pencil roots are rejected by validating the epipolar and internal constraints
of each candidate.

Conventions: bearings q_a (first camera) and q_b (second camera) satisfy
q_b^T E q_a = 0 with E ~ [t]x R and X_b = R X_a + t.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import TooFewCorrespondences

# monomial orders as (x, y, z) exponents
_LIN = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]                    # x, y, z, 1
_QUAD = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2),
         *_LIN]                                                         # x^2 ... z^2, lin
_CUBIC = [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (2, 0, 1), (1, 1, 1),
          (0, 2, 1), (1, 0, 2), (0, 1, 2), (0, 0, 3), *_QUAD]           # x^3 ... z^3, quad


def _product(a, b, out):
    """(len(a), len(b), len(out)) tensor with a 1 where monomial a[i] times
    b[j] is out[k]."""
    index = {m: k for k, m in enumerate(out)}
    T = np.zeros((len(a), len(b), len(out)))
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            T[i, j, index[tuple(u + v for u, v in zip(p, q))]] = 1.0
    return T


_M_LL = _product(_LIN, _LIN, _QUAD)
_M_QL = _product(_QUAD, _LIN, _CUBIC)

# cubic-coefficient partition by z-degree onto the (x, y)-monomial basis
# m = [x^3, x^2 y, x y^2, y^3, x^2, x y, y^2, x, y, 1], the z-free cubics
_XY = [(i, j) for i, j, k in _CUBIC if k == 0]
_Z_PARTS = tuple(([c for c, (_, _, k) in enumerate(_CUBIC) if k == d],
                  [_XY.index((i, j)) for i, j, k in _CUBIC if k == d]) for d in range(4))


def _mul_ll(a, b):
    return np.einsum("i,j,ijq->q", a, b, _M_LL)


def _mul_ql(q, l):
    return np.einsum("q,l,qlc->c", q, l, _M_QL)


def _constraint_matrix(basis):
    """10 x 20 cubic coefficients of det(E) = 0 and the trace constraint.

    basis is (4, 3, 3); entries of E are linear polys with coefficient order
    [x, y, z, 1].
    """
    Elin = np.transpose(basis, (1, 2, 0))  # (3, 3, 4)
    EEt = np.einsum("ikd,jke,deq->ijq", Elin, Elin, _M_LL)   # (3, 3, 10)
    tr = EEt[0, 0] + EEt[1, 1] + EEt[2, 2]
    B = 2.0 * EEt
    for i in range(3):
        B[i, i] -= tr
    trace_cubics = np.einsum("ikq,kjl,qlc->ijc", B, Elin, _M_QL)  # (3, 3, 20)

    cof0 = _mul_ll(Elin[1, 1], Elin[2, 2]) - _mul_ll(Elin[1, 2], Elin[2, 1])
    cof1 = _mul_ll(Elin[1, 0], Elin[2, 2]) - _mul_ll(Elin[1, 2], Elin[2, 0])
    cof2 = _mul_ll(Elin[1, 0], Elin[2, 1]) - _mul_ll(Elin[1, 1], Elin[2, 0])
    det = (_mul_ql(cof0, Elin[0, 0]) - _mul_ql(cof1, Elin[0, 1])
           + _mul_ql(cof2, Elin[0, 2]))

    rows = [det] + [trace_cubics[i, j] for i in range(3) for j in range(3)]
    return np.stack(rows)


def essential_from_five(q_a, q_b):
    """All real essential matrices consistent with five bearing pairs.

    Returns a list of 3x3 matrices with unit Frobenius norm. The list is
    empty if the pencil produced no valid real solution (degenerate sample).
    """
    q_a = np.asarray(q_a, dtype=float)
    q_b = np.asarray(q_b, dtype=float)
    if q_a.shape[0] < 5 or q_b.shape[0] != q_a.shape[0]:
        raise TooFewCorrespondences("five bearing pairs required")

    A = np.einsum("ni,nj->nij", q_b, q_a).reshape(len(q_a), 9)
    _, _, Vt = np.linalg.svd(A)
    basis = Vt[-4:][::-1].reshape(4, 3, 3)  # E = x B1 + y B2 + z B3 + B4

    C = _constraint_matrix(basis)
    C0 = np.zeros((10, 10))
    C1 = np.zeros((10, 10))
    C2 = np.zeros((10, 10))
    C3 = np.zeros((10, 10))
    for mat, (src, dst) in zip((C0, C1, C2, C3), _Z_PARTS):
        mat[:, dst] = C[:, src]

    # companion linearization of the cubic pencil
    Al = np.zeros((30, 30))
    Bl = np.zeros((30, 30))
    Al[:10, 10:20] = np.eye(10)
    Al[10:20, 20:] = np.eye(10)
    Al[20:, :10] = -C0
    Al[20:, 10:20] = -C1
    Al[20:, 20:] = -C2
    Bl[:10, :10] = np.eye(10)
    Bl[10:20, 10:20] = np.eye(10)
    Bl[20:, 20:] = C3
    try:
        w, vr = scipy.linalg.eig(Al, Bl, right=True, check_finite=False,
                                 homogeneous_eigvals=True)
    except (scipy.linalg.LinAlgError, ValueError):
        return []
    alpha, beta = w[0], w[1]

    out = []
    scale = max(np.abs(A).max(), 1.0)
    for k in range(30):
        if abs(beta[k]) < 1e-12 * max(abs(alpha[k]), 1.0):
            continue  # infinite pencil eigenvalue
        z = alpha[k] / beta[k]
        if abs(z.imag) > 1e-8 * (1.0 + abs(z.real)):
            continue
        m = vr[:10, k]
        j = int(np.argmax(np.abs(m)))
        if abs(m[j]) < 1e-12:
            continue
        m = (m / m[j]).real
        if abs(m[9]) < 1e-10:
            continue
        x = m[7] / m[9]
        y = m[8] / m[9]
        E = x * basis[0] + y * basis[1] + z.real * basis[2] + basis[3]
        norm = np.linalg.norm(E)
        if not np.isfinite(norm) or norm < 1e-12:
            continue
        E = E / norm
        # reject spurious pencil roots
        if np.abs(np.einsum("ni,ij,nj->n", q_b, E, q_a)).max() > 1e-7 * scale:
            continue
        EEt = E @ E.T
        internal = 2.0 * EEt @ E - np.trace(EEt) * E
        if abs(np.linalg.det(E)) > 1e-7 or np.abs(internal).max() > 1e-6:
            continue
        if any(min(np.abs(E - F).max(), np.abs(E + F).max()) < 1e-8 for F in out):
            continue
        out.append(E)
    return out


def decompose_essential(E):
    """Four (R, t) candidates with X_b = R X_a + t, t unit norm."""
    U, _, Vt = np.linalg.svd(E)
    if np.linalg.det(U) < 0:
        U = -U
    if np.linalg.det(Vt) < 0:
        Vt = -Vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    R1 = U @ W @ Vt
    R2 = U @ W.T @ Vt
    t = U[:, 2]
    return [(R1, t), (R1, -t), (R2, t), (R2, -t)]


def epipolar_errors(E, q_a, q_b):
    """Angular epipolar residual per pair: angle of q_b off the plane of E q_a."""
    n = q_a @ E.T  # rows: E q_a
    num = np.abs(np.einsum("ni,ni->n", q_b, n))
    den = np.linalg.norm(n, axis=1) * np.linalg.norm(q_b, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(den > 0, num / den, np.inf)
    return np.arcsin(np.clip(s, 0.0, 1.0))
