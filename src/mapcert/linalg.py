"""Tolerance-aware dense complex linear algebra on a single SVD backbone.

Every rank, kernel, span, and pseudoinverse decision in the package routes
through this module, so one relative threshold (``rank_rel_tol`` times the
largest singular value), applied by one cut, ``_kept``, governs them all.
Thresholds are relative throughout: rescaling a matrix never changes a rank
decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, KernelInclusionViolated

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_matrix",
    "numerical_rank",
    "kernel_basis",
    "image_projector",
    "kernel_inclusion_factor",
    "span_dimension",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """The rank threshold and the fixed settings that reports record; the other fixed gates sit by
    what they gate (``_SCREEN_TOL``, ``_REORTHOGONALIZE`` and ``_PENCIL_GATE`` in ``zeros``, the Gram
    gate of ``certify._irreducible_on_image``, ``_SCALE_WINDOW`` in ``documents``).

    rank_rel_tol: singular values at or below ``rank_rel_tol * sigma_max``
        count as zero (cut by ``_kept``), so it must be below 1.  It is the
        one settable threshold; the others are fixed.
    residual_rel_tol: acceptable relative size of residuals (zero tests,
        reconstructions, projector leakage).
    convergence_tol: relative objective-stall threshold for iterative
        searches.
    max_iters: iteration cap for those searches.
    """

    rank_rel_tol: float = 1e-8
    residual_rel_tol: float = field(default=1e-9, init=False)
    convergence_tol: float = field(default=1e-12, init=False)
    max_iters: int = field(default=500, init=False)

    def __post_init__(self):
        if not (isinstance(self.rank_rel_tol, (int, float)) and 0 < self.rank_rel_tol < 1):
            raise ValueError("rank_rel_tol must be a number in (0, 1)")

    def scaled(self, factor):
        """Copy with rank_rel_tol multiplied by ``factor``: a looser or tighter rank threshold."""
        return replace(self, rank_rel_tol=self.rank_rel_tol * factor)


DEFAULT_TOL = ToleranceConfig()


def as_matrix(entries) -> np.ndarray:
    """Coerce to a 2-d complex ndarray, rejecting non-finite entries."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a 1-d complex array, bitwise (its same two dot products), without its checks."""
    v = v.ravel(order="K")
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def _kept(values: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """The one rank cut: a mask, along the last axis, of the singular values (in any order, or the
    eigenvalues of a Hermitian matrix) whose moduli exceed ``rank_rel_tol`` times the largest."""
    moduli = np.abs(values)
    return moduli > tol.rank_rel_tol * np.max(moduli, axis=-1, keepdims=True, initial=0.0)


def _rank(values: np.ndarray, tol: ToleranceConfig) -> int:
    """The count of the 1-d ``values`` that ``_kept`` keeps."""
    return int(np.count_nonzero(_kept(values, tol)))


def numerical_rank(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Count of singular values above the relative threshold."""
    m = as_matrix(matrix)
    return _rank(np.linalg.svd(m, compute_uv=False), tol)


def kernel_basis(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical kernel, as matrix columns.

    Always satisfies numerical_rank(M) + returned column count = cols(M).
    Only V is needed, and it is square whatever the shape; the left factor is
    computed square only for wide matrices, where it is the small one.
    """
    m = as_matrix(matrix)
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    rank = _rank(s, tol)
    return vh[rank:].conj().T


def _free_rows(blocks: np.ndarray, ref: float, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the rows (P x m) or k x m blocks (P, k, m) of norm at most ``rank_rel_tol * ref``: free, kernel C^m;
    and the largest modulus t of each.  The norm is taken as t || |block| / t ||: it neither overflows nor underflows."""
    moduli = np.abs(blocks.reshape(len(blocks), math.prod(blocks.shape[1:])))
    top = moduli.max(axis=1)
    return top * np.linalg.norm(moduli / np.where(top > 0, top, 1)[:, None], axis=1) <= tol.rank_rel_tol * ref, top


def _householder_kernels(rows: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis of each nonzero row r of a P x m array, as one (P, m, m - 1) array.

    A nonzero row has rank 1, so no rank is decided: with v = conj(r) / ||r|| and w = v + phase(v_1)
    e_1 (phase 1 where v_1 = 0), the Householder reflector I - w w^H / (1 + |v_1|) maps v onto a
    multiple of e_1 (Golub and Van Loan, Matrix Computations, 4th ed., 5.1.2), so its last m - 1
    columns are orthonormal and orthogonal to v: a basis of the kernel of r."""
    v = rows.conj() / top[:, None]  # by each row's largest modulus, to 1: the norm below cannot
    v /= np.linalg.norm(v, axis=1, keepdims=True)  # overflow or underflow, whatever the scale of r
    head = np.abs(v[:, 0])
    w = v.copy()
    w[:, 0] += np.divide(v[:, 0], head, out=np.ones_like(v[:, 0]), where=head > 0)
    scaled = v[:, None, 1:].conj() / (1 + head)[:, None, None]
    return np.eye(rows.shape[1], rows.shape[1] - 1, k=-1) - w[:, :, None] * scaled


def _row_kernels(blocks: np.ndarray, ref: float, tol: ToleranceConfig) -> list[np.ndarray]:
    """Kernel basis (as columns) of each k x m block of a (K, k, m) array.

    A free block, see ``_free_rows``, has all of C^m as its kernel.  Blocks of height 1 (rows)
    are cut in closed form by ``_householder_kernels``; taller blocks by one stacked SVD, each at
    its own relative threshold by ``_kept``.
    """
    free, top = _free_rows(blocks, ref, tol)
    kernels = [np.eye(blocks.shape[2], dtype=complex)] * len(blocks)
    if blocks.shape[1] == 1:
        cut = _householder_kernels(blocks[~free, 0], top[~free])
    else:
        _, s, vh = np.linalg.svd(blocks[~free], full_matrices=True)
        ranks = np.count_nonzero(_kept(s, tol), axis=1)
        cut = [v[:, rank:] for rank, v in zip(ranks, vh.conj().transpose(0, 2, 1))]
    for i, kernel in zip(np.flatnonzero(~free), cut):
        kernels[i] = kernel
    return kernels


def image_projector(matrix, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the column space at the working rank."""
    m = as_matrix(matrix)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = _rank(s, tol)
    u = u[:, :rank]
    return u @ u.conj().T


def kernel_inclusion_factor(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Solve A = X B given ker(B) subseteq ker(A).

    The precondition is verified on an orthonormal kernel basis of B; the
    worst offending vector is reported if it fails.  The factor is
    X = A B^+, which satisfies XB = A and rank(X) = rank(A) whenever the
    inclusion holds.  One SVD of B gives both the kernel basis (its V is
    square, as ``kernel_basis`` computes it) and the pseudoinverse at the
    shared rank cutoff.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"A has shape {a.shape}, B has shape {b.shape}")
    sigma_a = float(np.linalg.norm(a, 2)) if a.size else 0.0
    u, s, vh = np.linalg.svd(b, full_matrices=b.shape[0] < b.shape[1])
    rank = _rank(s, tol)
    kb = vh[rank:].conj().T
    if kb.shape[1]:
        residuals = np.linalg.norm(a @ kb, axis=0)
        worst = int(np.argmax(residuals))
        if residuals[worst] > tol.residual_rel_tol * sigma_a:
            raise KernelInclusionViolated(
                "ker(B) is not contained in ker(A): worst kernel vector has "
                f"|A v| = {residuals[worst]:.3e} against allowance "
                f"{tol.residual_rel_tol * sigma_a:.3e}",
                worst_vector=kb[:, worst],
                worst_residual=float(residuals[worst]),
            )
    # B^+ = V_r diag(1/s_r) U_r^H
    return a @ ((vh[:rank].conj().T / s[:rank]) @ u[:, :rank].conj().T)


def span_dimension(vectors: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of the span of the columns of a 2-d array; 0, with no SVD, when it has none."""
    if vectors.shape[1] == 0:
        return 0
    return numerical_rank(vectors, tol)
