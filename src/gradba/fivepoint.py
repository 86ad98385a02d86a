"""Minimal five-point essential-matrix solver.

Follows the Gröbner-basis construction of Stewénius, Engels & Nistér
(ISPRS J. 2006): a 4-dimensional nullspace basis of the epipolar
constraints, the ten cubic polynomial constraints (det E = 0 and the trace
constraint 2 E E^T E - tr(E E^T) E = 0) over E = x E1 + y E2 + z E3 + E4,
and elimination of the ten degree-3 monomials, which leaves the ten
monomials of degree <= 2 as a basis of the quotient ring. Multiplication by
x on that basis is a 10 x 10 action matrix; its real eigenvectors are the
monomial vectors of the real roots. Spurious roots are rejected by
validating the epipolar and internal constraints of all candidates at once.

Conventions: bearings q_a (first camera) and q_b (second camera) satisfy
q_b^T E q_a = 0 with E ~ [t]x R and X_b = R X_a + t.
"""

from __future__ import annotations

import numpy as np

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

# row of x * _QUAD[j] among the _CUBIC monomials: the action of x on the basis
_X_ACT = [_CUBIC.index((i + 1, j, k)) for i, j, k in _QUAD]


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

    The cubic constraints C [cubics; quads] = 0 write each degree-3 monomial
    in the basis of lower monomials, cubics = -G quads with
    G = C[:, :10]^-1 C[:, 10:], so x * quads = M quads with M the rows of
    [-G; I] that hold x times each basis monomial. The right eigenvectors of
    M are the basis monomials at the roots, whose last four entries are
    (x, y, z, 1) up to scale.

    Returns a list of 3x3 matrices with unit Frobenius norm. The list is
    empty if the sample gave no valid real solution (degenerate sample).
    """
    q_a = np.asarray(q_a, dtype=float)
    q_b = np.asarray(q_b, dtype=float)
    if q_a.shape[0] < 5 or q_b.shape[0] != q_a.shape[0]:
        raise TooFewCorrespondences("five bearing pairs required")

    A = np.einsum("ni,nj->nij", q_b, q_a).reshape(len(q_a), 9)
    _, _, Vt = np.linalg.svd(A)
    basis = Vt[-4:][::-1].reshape(4, 3, 3)  # E = x B1 + y B2 + z B3 + B4

    C = _constraint_matrix(basis)
    try:
        G = np.linalg.solve(C[:, :10], C[:, 10:])
        w, V = np.linalg.eig(np.vstack([-G, np.eye(10)])[_X_ACT])
    except np.linalg.LinAlgError:
        return []  # singular cubic block, or no eigendecomposition

    # real roots, each monomial vector scaled by its largest entry
    V = V[:, np.abs(w.imag) <= 1e-8 * (1.0 + np.abs(w.real))]
    V = (V / V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]).real
    V = V[:, np.abs(V[9]) >= 1e-10]
    xyz1 = np.vstack([V[6:9] / V[9], np.ones(V.shape[1])])
    E = np.einsum("ck,cij->kij", xyz1, basis)  # norm >= 1: the basis is orthonormal
    E = E / np.linalg.norm(E, axis=(1, 2))[:, None, None]

    # reject spurious roots
    scale = max(np.abs(A).max(), 1.0)
    EEt = E @ np.swapaxes(E, 1, 2)
    internal = 2.0 * EEt @ E - np.trace(EEt, axis1=1, axis2=2)[:, None, None] * E
    valid = ((np.abs(np.einsum("ni,kij,nj->kn", q_b, E, q_a)).max(axis=1) <= 1e-7 * scale)
             & (np.abs(np.linalg.det(E)) <= 1e-7)
             & (np.abs(internal).max(axis=(1, 2)) <= 1e-6))
    out = []
    for F in E[valid]:
        if not any(min(np.abs(F - D).max(), np.abs(F + D).max()) < 1e-8 for D in out):
            out.append(F)
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
    """Angular epipolar residual per pair: angle of q_b off the plane of E q_a.

    E is one matrix (3, 3), giving (n,), or a stack (k, 3, 3), giving (k, n)."""
    n = q_a @ np.swapaxes(E, -1, -2)  # rows: E q_a
    num = np.abs(np.einsum("ni,...ni->...n", q_b, n))
    den = np.linalg.norm(n, axis=-1) * np.linalg.norm(q_b, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(den > 0, num / den, np.inf)
    return np.arcsin(np.clip(s, 0.0, 1.0))
