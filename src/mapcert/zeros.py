"""Product zero pairs of a positive map and their spanning dimensions.

A zero pair of Phi is a pair of unit vectors (x, h) with
Phi(|conj(x)><conj(x)|) h = 0, equivalently <(x)(x)h| C |(x)(x)h> = 0 for the
Choi block matrix C of Phi.  The pair contributes a weak vector x (x) h in
C^(nm) and a strong vector conj(x) (x) x (x) h in C^(n^2 m); the latter is
the coordinate form of |conj(x)><conj(x)| (x) h.  The dimensions of the spans
of those vectors are what the certificates in this package are built from.

Two enumeration routes are provided and are expected to agree:

* ``harvest_zeros`` knows nothing about the structure of the map.  It runs
  the alternating eigenvector descent of ``maps`` from many seeded random
  starts.  Each half step minimizes the bilinear objective g(x, h) =
  <h| Phi(|conj(x)><conj(x)|) |h> exactly in one argument
  (smallest-eigenvalue eigenvector), so g is nonincreasing along the
  iteration.  Starts alternate between the x side and the h side: h-side
  starts are what reach the degenerate stratum of rank-deficient
  conjugation maps, which is invisible from generic x starts.  At every
  converged pair the full near-null eigenspaces on both sides are mined for
  further candidates, from the eigendecompositions the descent already
  holds.
* ``analytic_zeros_conjugation`` uses the singular frame of a conjugation map
  to write down exact zeros on a deterministic grid, including the
  degenerate-stratum family, and then verifies saturation numerically by
  extending the grid with filler points until nothing new is admitted.  At
  a fixed x the zero condition is one linear row in h; the rows of each
  batch of points (base grid, filler) are cut by one ``linalg._row_kernels``
  solve, which the oracle shares.

Both routes evaluate Phi(|conj(x)><conj(x)|) once per point x, for all of
its partners h, and offer every candidate with its residual to one
admission object.  It keeps a pair only if the residual is within
residual_rel_tol times the spectral scale of the map and the strong vector
grows the running span, so the pair list of a ZeroSet is always a spanning
subset.  Growth is decided by the residual of the normalized strong vector
against an orthonormal basis of the kept ones (Gram-Schmidt, applied
twice), at ``_SCREEN_TOL``; no SVD runs per candidate.  Each candidate's
strong vector is built once, as an outer product reshaped flat (entry for
entry the Kronecker product, without its per-call overhead), and the
ZeroSet keeps the very vectors that were admitted, stacked as rows.  The
span dimensions reported by ``weak_span_dim`` and ``strong_span_dim`` come
from one SVD of those rows at the shared relative threshold
``rank_rel_tol``.  On exact zeros the strong count equals the number of
kept pairs; ``certify_exposed`` issues no certificate when the two differ.
Both routes stop by one rule, ``_saturates``: a window of consecutive
starts or filler points that admit nothing ends the search, and nothing is
drawn after it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceConfig, _rank_from_singular_values, _row_kernels, as_matrix, span_dimension
from .maps import MapOperator, choi_spectral_scale, from_conjugation
from .maps import _alternating_descent, _image, _normalize, _random_unit, _x_step

__all__ = [
    "ZeroPair",
    "ZeroSet",
    "harvest_zeros",
    "analytic_zeros_conjugation",
    "weak_span_dim",
    "strong_span_dim",
]

# Admission threshold of the span basis: a unit candidate whose residual
# against the admitted basis is at or below this is dependent.
_SCREEN_TOL = 1e-7

# The harvest stops once this many consecutive starts admit nothing new.
_STALL_BUDGET = 20


@dataclass(frozen=True)
class ZeroPair:
    """Unit vectors (x, h) with Phi(|conj(x)><conj(x)|) h ~ 0."""

    x: np.ndarray
    h: np.ndarray
    residual: float


# Outer products with np.kron's operand shapes (a[:, None] * b[None, :]):
# bitwise its result, without its per-call overhead.  numpy may pick another
# complex multiply loop, with other roundings, for other broadcast shapes.
def _weak_vector(x, h) -> np.ndarray:
    """x (x) h."""
    return (x[:, None] * h[None, :]).ravel()


def _strong_vector(x, h) -> np.ndarray:
    """conj(x) (x) x (x) h."""
    return ((x.conj()[:, None] * x[None, :])[:, :, None] * h[None, None, :]).ravel()


@dataclass(frozen=True)
class ZeroSet:
    """A spanning collection of zero pairs of one map.

    Row i of ``weak_vectors`` (k x nm) and of ``strong_vectors`` (k x n^2 m)
    belongs to ``pairs[i]``.  ``saturated`` records whether enumeration
    stopped because further searching stopped producing new directions (as
    opposed to running out of budget).
    """

    dim_in: int
    dim_out: int
    pairs: list[ZeroPair]
    weak_vectors: np.ndarray
    strong_vectors: np.ndarray
    saturated: bool

    @classmethod
    def from_pairs(cls, dim_in, dim_out, pairs, saturated):
        """Stack the pairs' weak and strong vectors as rows."""
        pairs = list(pairs)
        k, nm = len(pairs), dim_in * dim_out
        weak = [_weak_vector(p.x, p.h) for p in pairs]
        strong = [_strong_vector(p.x, p.h) for p in pairs]
        return cls(
            dim_in=dim_in,
            dim_out=dim_out,
            pairs=pairs,
            weak_vectors=np.array(weak, dtype=complex).reshape(k, nm),
            strong_vectors=np.array(strong, dtype=complex).reshape(k, dim_in * nm),
            saturated=bool(saturated),
        )


class _Admission:
    """The zero pairs admitted so far, and the one rule that admits them.

    ``offer`` rejects a candidate whose residual exceeds ``thr``; otherwise
    its normalized strong vector is projected off an orthonormal basis of
    the admitted ones by classical Gram-Schmidt, twice: one pass loses
    orthogonality in floating point, two restore it to working precision
    ("twice is enough", Giraud, Langou and Rozloznik 2005).  The pair is
    admitted only if the residual of both passes stays above
    ``_SCREEN_TOL``; most rejections cost one pass.  The basis decides
    admission only: the reported span dimension is the final SVD of the
    kept vectors (``strong_span_dim``).  The weak and strong vectors of the
    admitted pairs are the rows of preallocated arrays, which the ZeroSet
    takes without a copy.
    """

    def __init__(self, n: int, m: int, thr: float):
        dim = n * n * m
        self._dims = (n, m)
        self._thr = thr
        self._basis = np.empty((dim, dim), dtype=complex)
        self._strong = np.empty((dim, dim), dtype=complex)
        self._weak = np.empty((dim, n * m), dtype=complex)
        self._pairs: list[ZeroPair] = []

    def offer(self, x, h, residual: float) -> bool:
        if residual > self._thr:
            return False
        vec = _strong_vector(x, h)
        norm = np.linalg.norm(vec)
        if norm == 0:
            return False
        k = len(self._pairs)
        basis = self._basis[:k]
        resid = vec / norm
        for _ in range(2):
            # coefficients <q_i, resid> as conj(Q conj(resid)): no copy of Q
            resid = resid - (basis @ resid.conj()).conj() @ basis
            rnorm = np.linalg.norm(resid)
            if rnorm <= _SCREEN_TOL:
                return False
        self._basis[k] = resid / rnorm
        self._strong[k] = vec
        self._weak[k] = _weak_vector(x, h)
        self._pairs.append(ZeroPair(x=x, h=h, residual=residual))
        return True

    def offer_all(self, candidates) -> bool:
        """Offer every (x, h, residual) in turn; whether any was admitted."""
        return any([self.offer(x, h, residual) for x, h, residual in candidates])

    def zero_set(self, saturated) -> ZeroSet:
        k = len(self._pairs)
        return ZeroSet(*self._dims, self._pairs, self._weak[:k], self._strong[:k], bool(saturated))


def _saturates(produced, window: int) -> bool:
    """Whether ``produced`` holds ``window`` consecutive False flags; draws none after them."""
    stall = 0
    for flag in produced:
        stall = 0 if flag else stall + 1
        if stall >= window:
            return True
    return False


def _mine_candidates(phi, thr, outcome):
    """Candidate zero pairs (x, h, residual) at a converged pair.

    The bottom eigenspace of Phi(|conj(x)><conj(x)|) may be degenerate (it is
    m-1 dimensional for conjugation maps), and likewise on the adjoint side;
    every near-null eigenvector is a candidate.  The image at x and its
    eigendecomposition come from the descent's last h step, and the adjoint
    one at h from its last x step when it ran.  Admission checks each
    residual, so mining can only add genuine zeros.
    """
    x, image = outcome.x, outcome.image
    w, u = outcome.spectrum
    yield x, outcome.h, outcome.residual
    for i in range(w.shape[0]):
        if abs(w[i]) <= thr:
            hk = u[:, i]
            if i > 0:  # (x, u[:, 0]) is the pair itself, offered above
                yield x, hk, float(np.linalg.norm(image @ hk))
            if i == 0 and outcome.adjoint_spectrum is not None:
                w2, u2 = outcome.adjoint_spectrum  # its last x step, at h = u[:, 0]
            else:
                w2, u2 = _x_step(phi, hk)
            for j in range(w2.shape[0]):
                if abs(w2[j]) <= thr:
                    xj = u2[:, j].conj()
                    yield xj, hk, float(np.linalg.norm(_image(phi, xj) @ hk))


def harvest_zeros(
    phi: MapOperator,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
    starts: int | None = None,
) -> ZeroSet:
    """Multistart zero harvest; keeps a pair only if it grows the strong span.

    Runs alternating descents from ``starts`` seeded random starts (default
    50 * n * m), alternating x-side and h-side starts, and stops early once
    ``_STALL_BUDGET`` consecutive starts produce nothing new (this includes
    starts that found no zero at all, so maps without zeros stall quickly and
    still report ``saturated=True``).  Deterministic for a fixed seed.
    """
    n, m = phi.dim_in, phi.dim_out
    budget = 50 * n * m if starts is None else int(starts)
    if budget < 1:
        raise ValueError("starts must be at least 1")
    thr = tol.residual_rel_tol * choi_spectral_scale(phi)
    rng = np.random.default_rng(seed)
    admission = _Admission(n, m, thr)

    def produced():
        for start in range(budget):
            side = {"x0": _random_unit(rng, n)} if start % 2 == 0 else {"h0": _random_unit(rng, m)}
            outcome = _alternating_descent(phi, tol, **side)
            yield outcome.succeeded and admission.offer_all(_mine_candidates(phi, thr, outcome))

    return admission.zero_set(saturated=_saturates(produced(), _STALL_BUDGET))


# Deterministic grid nodes: distinct moduli and golden-angle phases give
# distinct moments, so Vandermonde points built from them are generic.
_GRID_RADII = (1.0, 1.3, 0.75, 1.6, 0.55, 1.15, 0.9)
_GOLDEN = 0.6180339887498949
_EXTENSION_SEED = 271828182845


def _vandermonde_point(t: int, dim: int) -> np.ndarray:
    radius = _GRID_RADII[t % len(_GRID_RADII)]
    angle = 2.0 * np.pi * ((t * _GOLDEN + 0.1) % 1.0)
    xi = (radius * complex(np.cos(angle), np.sin(angle))) ** np.arange(dim)
    return xi / np.linalg.norm(xi)


def analytic_zeros_conjugation(
    v,
    transposed: bool = False,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ZeroSet:
    """Exact zero pairs of a conjugation map from its singular frame.

    In the frame V = U diag(s) W^H the zero condition reads
    sum_i s_i conj(xi_i) eta_i = 0 (transposed) or sum_i s_i xi_i eta_i = 0,
    with xi, eta the frame coordinates of x and h.  For each grid point xi
    the eta solutions form an exact hyperplane (or everything, on the
    degenerate stratum), so pairs come out with machine-precision residuals.
    Each hyperplane already contains ker V, so h in ker V needs no family of
    its own; when rank V < n the degenerate x-family is emitted explicitly.
    Saturation is then verified by extending the grid until a stall window
    admits nothing new.
    """
    phi = from_conjugation(v, transposed)
    return _conjugation_zeros(phi, as_matrix(v), transposed, tol)


def _point_candidates(phi, x, hs):
    """(x, h, residual) for each partner h of x, both normalized, from one image of x."""
    x = _normalize(x)
    image = _image(phi, x)
    for h in hs:
        h = _normalize(h)
        yield x, h, float(np.linalg.norm(image @ h))


def _conjugation_zeros(phi: MapOperator, v: np.ndarray, transposed: bool, tol: ToleranceConfig) -> ZeroSet:
    """``analytic_zeros_conjugation`` on its conjugation map phi, built by the caller."""
    n, m = v.shape
    admission = _Admission(n, m, tol.residual_rel_tol * choi_spectral_scale(phi))
    u_mat, s, w_h = np.linalg.svd(v)
    w_mat = w_h.conj().T
    r = _rank_from_singular_values(s, tol)
    x_frame = u_mat if transposed else u_mat.conj()

    def frame_points(xis):
        """Each x with frame coordinates xi (a row of xis) and its partners, cut in one solve."""
        rows = np.zeros((xis.shape[0], m), dtype=complex)
        rows[:, :r] = s[:r] * (xis[:, :r].conj() if transposed else xis[:, :r])
        for xi, eta in zip(xis, _row_kernels(rows, s[0], tol)):
            yield x_frame @ xi, [w_mat @ eta[:, k] for k in range(eta.shape[1])]

    base_points = n * n + n
    for x, hs in frame_points(np.array([_vandermonde_point(t, n) for t in range(base_points)])):
        admission.offer_all(_point_candidates(phi, x, hs))

    # Degenerate stratum: when rank V < n there are x with V^H x = 0
    # (or V^T x = 0), and then every h is a zero partner.
    if r < n:
        d = n - r
        for t in range(d * d + d):
            admission.offer_all(_point_candidates(phi, x_frame[:, r:] @ _vandermonde_point(t, d), list(w_mat.T)))

    # Saturation check: deterministic generic filler points until nothing new
    # is admitted for a full stall window.
    ext_rng = np.random.default_rng(_EXTENSION_SEED)
    filler = np.array([_random_unit(ext_rng, n) for _ in range(3 * base_points)])
    produced = (admission.offer_all(_point_candidates(phi, x, hs)) for x, hs in frame_points(filler))
    return admission.zero_set(saturated=_saturates(produced, max(4, n)))


def weak_span_dim(zero_set: ZeroSet, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of span{x (x) h} over the zero set."""
    return span_dimension(zero_set.weak_vectors.T, tol)


def strong_span_dim(zero_set: ZeroSet, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of span{conj(x) (x) x (x) h} over the zero set."""
    return span_dimension(zero_set.strong_vectors.T, tol)
