"""Product zero pairs of a positive map and their spanning dimensions.

A zero pair of Phi is a pair of unit vectors (x, h) with
Phi(|conj(x)><conj(x)|) h = 0, equivalently <(x)(x)h| C |(x)(x)h> = 0 for the
Choi block matrix C of Phi.  The pair contributes a weak vector x (x) h in
C^(nm) and a strong vector conj(x) (x) x (x) h in C^(n^2 m); the latter is
the coordinate form of |conj(x)><conj(x)| (x) h.  The dimensions of the spans
of those vectors are what the certificates in this package are built from.

Two enumeration routes are provided and are expected to agree:

* ``harvest_zeros`` knows nothing about the structure of the map.  It runs an
  alternating eigenvector descent from many seeded random starts.  Each half
  step minimizes the bilinear objective g(x, h) = <h| Phi(|conj(x)><conj(x)|)
  |h> exactly in one argument (smallest-eigenvalue eigenvector), so g is
  nonincreasing along the iteration.  Starts alternate between the x side and
  the h side: h-side starts are what reach the degenerate stratum of
  rank-deficient conjugation maps, which is invisible from generic x starts.
  At every converged pair the full near-null eigenspaces on both sides are
  mined for further candidates.
* ``analytic_zeros_conjugation`` uses the singular frame of a conjugation map
  to write down exact zeros on a deterministic grid, including the kernel-side
  and degenerate-stratum families, and then verifies saturation numerically by
  extending the grid until nothing new is admitted.

A pair is kept only if its strong vector grows the running span, so the pair
list of a ZeroSet is always a spanning subset.  Growth is decided by the
residual of the normalized strong vector against an orthonormal basis of the
kept ones (Gram-Schmidt, applied twice), at ``_SCREEN_TOL``; no SVD runs per
candidate.  Each candidate's strong vector is built once, as an outer
product reshaped flat (entry for entry the Kronecker product, without its
per-call overhead), and the ZeroSet keeps the very vectors that were
admitted, stacked as rows.  The span dimensions reported by
``weak_span_dim`` and ``strong_span_dim`` come from one SVD of those rows at
the shared relative threshold ``rank_rel_tol``.  On exact zeros the strong
count equals the number of kept pairs; ``certify_exposed`` issues no
certificate when the two differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ZeroOperator
from .linalg import DEFAULT_TOL, ToleranceConfig, as_matrix, kernel_basis, numerical_rank, span_dimension, svd
from .maps import MapOperator, adjoint_map, apply, choi_spectral_scale, from_conjugation, _hermitize

__all__ = [
    "ZeroPair",
    "ZeroSet",
    "SearchOutcome",
    "local_zero_search",
    "harvest_zeros",
    "analytic_zeros_conjugation",
    "weak_span_dim",
    "strong_span_dim",
]

# Admission threshold of the span tracker: a unit candidate whose residual
# against the admitted basis is at or below this is dependent.
_SCREEN_TOL = 1e-7


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
class ZeroPair:
    """Unit vectors (x, h) with Phi(|conj(x)><conj(x)|) h ~ 0."""

    x: np.ndarray
    h: np.ndarray
    residual: float

    def weak_vector(self) -> np.ndarray:
        return _weak_vector(self.x, self.h)

    def strong_vector(self) -> np.ndarray:
        return _strong_vector(self.x, self.h)


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
    def from_pairs(cls, dim_in, dim_out, pairs, saturated, strong_vectors=None):
        """Stack the pairs' vectors; ``strong_vectors``, when given, are the
        ones already built for admission, one per pair."""
        pairs = list(pairs)
        if strong_vectors is None:
            strong_vectors = [p.strong_vector() for p in pairs]
        weak_vectors = [p.weak_vector() for p in pairs]
        k, nm = len(pairs), dim_in * dim_out
        return cls(
            dim_in=dim_in,
            dim_out=dim_out,
            pairs=pairs,
            weak_vectors=np.array(weak_vectors, dtype=complex).reshape(k, nm),
            strong_vectors=np.asarray(strong_vectors, dtype=complex).reshape(k, dim_in * nm),
            saturated=bool(saturated),
        )


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one alternating descent.

    ``succeeded`` means the final pair is a zero within tolerance (residual
    at most residual_rel_tol times the spectral scale of the map); callers
    treat a non-succeeded outcome as "no zero found from this start".
    ``converged`` only says the objective stalled.  ``history`` holds the
    objective value after every half step; it is nonincreasing up to
    eigensolver roundoff.
    """

    x: np.ndarray
    h: np.ndarray
    value: float
    residual: float
    converged: bool
    succeeded: bool
    iterations: int
    history: list[float] = field(repr=False)

    def pair(self) -> ZeroPair | None:
        if not self.succeeded:
            return None
        return ZeroPair(x=self.x, h=self.h, residual=self.residual)


def _normalize(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm == 0 or not np.isfinite(norm):
        raise ValueError("cannot normalize a zero or non-finite vector")
    return v / norm


def _random_unit(rng, dim) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _h_step(phi, x):
    m = _hermitize(apply(phi, np.outer(x.conj(), x)))
    w, u = np.linalg.eigh(m)
    return u[:, 0], float(w[0])


def _x_step(adj, h):
    # g(x, h) = <conj(x)| Phi*(|h><h|) |conj(x)>, so the minimizer over x is
    # the conjugate of the bottom eigenvector of the adjoint image.
    n_mat = _hermitize(apply(adj, np.outer(h, h.conj())))
    w, u = np.linalg.eigh(n_mat)
    return u[:, 0].conj(), float(w[0])


def _alternating_descent(phi, adj, scale, tol, x0=None, h0=None) -> SearchOutcome:
    """Minimize g(x, h) by exact alternating eigenvector steps.

    The loop always exits holding a pair whose h is a bottom eigenvector of
    Phi(|conj(x)><conj(x)|); the pair residual therefore equals the bottom
    eigenvalue magnitude rather than its square root.
    """
    if (x0 is None) == (h0 is None):
        raise ValueError("exactly one of x0 and h0 must be given")
    stall = tol.convergence_tol * max(scale, np.finfo(float).tiny)
    history: list[float] = []
    if h0 is not None:
        x, g = _x_step(adj, _normalize(h0))
        history.append(g)
    else:
        x = _normalize(x0)
    g_prev = history[-1] if history else None
    pair_x = pair_h = None
    pair_value = np.inf
    converged = False
    iterations = 0
    for it in range(tol.max_iters):
        iterations = it + 1
        h, g = _h_step(phi, x)
        history.append(g)
        pair_x, pair_h, pair_value = x, h, g
        if g_prev is not None and abs(g_prev - g) <= stall:
            converged = True
            break
        g_prev = g
        x_next, g = _x_step(adj, h)
        history.append(g)
        if abs(g_prev - g) <= stall:
            converged = True
            break
        g_prev = g
        x = x_next
    residual = float(
        np.linalg.norm(apply(phi, np.outer(pair_x.conj(), pair_x)) @ pair_h)
    )
    succeeded = residual <= tol.residual_rel_tol * scale
    return SearchOutcome(
        x=pair_x,
        h=pair_h,
        value=float(pair_value),
        residual=residual,
        converged=converged,
        succeeded=succeeded,
        iterations=iterations,
        history=history,
    )


def local_zero_search(phi: MapOperator, x0, tol: ToleranceConfig = DEFAULT_TOL) -> SearchOutcome:
    """Alternating descent for a single zero pair, starting at x0."""
    x0 = _normalize(x0)
    if x0.shape[0] != phi.dim_in:
        raise DimensionMismatch(f"x0 has length {x0.shape[0]}, expected {phi.dim_in}")
    return _alternating_descent(
        phi, adjoint_map(phi), choi_spectral_scale(phi), tol, x0=x0
    )


class _SpanTracker:
    """Orthonormal basis of the admitted vectors, grown one row at a time.

    A candidate is normalized and projected off the basis by classical
    Gram-Schmidt, twice: one pass loses orthogonality in floating point, two
    restore it to working precision ("twice is enough", Giraud, Langou and
    Rozloznik 2005).  It is admitted only if the residual of both passes
    stays above ``_SCREEN_TOL``; since the second pass can only shrink the
    residual, most rejections cost one pass.  The basis decides admission
    only: the reported span dimension is the final SVD of the kept vectors
    (``strong_span_dim``), at ``rank_rel_tol``.  The admitted vectors
    themselves are kept as they came, as the rows of ``vectors()``.
    """

    def __init__(self, dim: int):
        self._basis = np.empty((dim, dim), dtype=complex)
        self._vectors = np.empty((dim, dim), dtype=complex)
        self.dimension = 0

    def vectors(self) -> np.ndarray:
        return self._vectors[: self.dimension]

    def admit(self, vec) -> bool:
        norm = np.linalg.norm(vec)
        if norm == 0:
            return False
        resid = vec / norm
        basis = self._basis[: self.dimension]
        for _ in range(2):
            # coefficients <q_i, resid> as conj(Q conj(resid)): no copy of Q
            resid = resid - (basis @ resid.conj()).conj() @ basis
            rnorm = np.linalg.norm(resid)
            if rnorm <= _SCREEN_TOL:
                return False
        self._basis[self.dimension] = resid / rnorm
        self._vectors[self.dimension] = vec
        self.dimension += 1
        return True


def _mine_candidates(phi, adj, scale, tol, x, h):
    """Candidate zero pairs near a converged pair.

    The bottom eigenspace of Phi(|conj(x)><conj(x)|) may be degenerate (it is
    m-1 dimensional for conjugation maps), and likewise on the adjoint side;
    every near-null eigenvector is a candidate.  Each candidate is re-verified
    by residual before admission, so mining can only add genuine zeros.
    """
    thr = tol.residual_rel_tol * scale
    candidates = [(x, h)]
    m_mat = _hermitize(apply(phi, np.outer(x.conj(), x)))
    w, u = np.linalg.eigh(m_mat)
    null_hs = [u[:, i] for i in range(w.shape[0]) if abs(w[i]) <= thr]
    for hk in null_hs:
        candidates.append((x, hk))
        n_mat = _hermitize(apply(adj, np.outer(hk, hk.conj())))
        w2, u2 = np.linalg.eigh(n_mat)
        for j in range(w2.shape[0]):
            if abs(w2[j]) <= thr:
                candidates.append((u2[:, j].conj(), hk))
    return candidates


def harvest_zeros(
    phi: MapOperator,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
    starts: int | None = None,
    stall_budget: int = 20,
) -> ZeroSet:
    """Multistart zero harvest; keeps a pair only if it grows the strong span.

    Runs alternating descents from ``starts`` seeded random starts (default
    50 * n * m), alternating x-side and h-side starts, and stops early once
    ``stall_budget`` consecutive starts produce nothing new (this includes
    starts that found no zero at all, so maps without zeros stall quickly and
    still report ``saturated=True``).  Deterministic for a fixed seed.
    """
    n, m = phi.dim_in, phi.dim_out
    budget = 50 * n * m if starts is None else int(starts)
    if budget < 1:
        raise ValueError("starts must be at least 1")
    adj = adjoint_map(phi)
    scale = choi_spectral_scale(phi)
    thr = tol.residual_rel_tol * scale
    rng = np.random.default_rng(seed)
    tracker = _SpanTracker(n * n * m)
    kept: list[ZeroPair] = []
    stall = 0
    for start in range(budget):
        if stall >= stall_budget:
            break
        if start % 2 == 0:
            outcome = _alternating_descent(phi, adj, scale, tol, x0=_random_unit(rng, n))
        else:
            outcome = _alternating_descent(phi, adj, scale, tol, h0=_random_unit(rng, m))
        produced = False
        if outcome.succeeded:
            for xc, hc in _mine_candidates(phi, adj, scale, tol, outcome.x, outcome.h):
                residual = float(
                    np.linalg.norm(apply(phi, np.outer(xc.conj(), xc)) @ hc)
                )
                if residual > thr:
                    continue
                if tracker.admit(_strong_vector(xc, hc)):
                    kept.append(ZeroPair(x=xc, h=hc, residual=residual))
                    produced = True
        stall = 0 if produced else stall + 1
    return ZeroSet.from_pairs(n, m, kept, saturated=stall >= stall_budget, strong_vectors=tracker.vectors())


# Deterministic grid nodes: distinct moduli and golden-angle phases give
# distinct moments, so Vandermonde points built from them are generic.
_GRID_RADII = (1.0, 1.3, 0.75, 1.6, 0.55, 1.15, 0.9)
_GOLDEN = 0.6180339887498949
_EXTENSION_SEED = 271828182845


def _grid_node(t: int) -> complex:
    radius = _GRID_RADII[t % len(_GRID_RADII)]
    angle = 2.0 * np.pi * ((t * _GOLDEN + 0.1) % 1.0)
    return radius * complex(np.cos(angle), np.sin(angle))


def _vandermonde_point(t: int, dim: int) -> np.ndarray:
    xi = _grid_node(t) ** np.arange(dim)
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
    The kernel-side family (h in ker V) and, when rank V < n, the degenerate
    x-family are emitted explicitly; saturation is then verified by extending
    the grid until a stall window admits nothing new.
    """
    v = as_matrix(v)
    if not np.any(v):
        raise ZeroOperator("conjugation by the zero operator is not a map")
    n, m = v.shape
    phi = from_conjugation(v, transposed)
    scale = choi_spectral_scale(phi)
    thr = tol.residual_rel_tol * scale
    frame = svd(v)
    u_mat, s, w_mat = frame.left_vectors, frame.singular_values, frame.right_vectors
    r = numerical_rank(v, tol)
    tracker = _SpanTracker(n * n * m)
    kept: list[ZeroPair] = []

    def admit(x, h) -> bool:
        x = _normalize(x)
        h = _normalize(h)
        residual = float(np.linalg.norm(apply(phi, np.outer(x.conj(), x)) @ h))
        if residual > thr:
            return False
        if tracker.admit(_strong_vector(x, h)):
            kept.append(ZeroPair(x=x, h=h, residual=residual))
            return True
        return False

    def pairs_for(xi) -> list[tuple[np.ndarray, np.ndarray]]:
        if transposed:
            x = u_mat @ xi
            coeff = s[:r] * xi[:r].conj()
        else:
            x = u_mat.conj() @ xi
            coeff = s[:r] * xi[:r]
        row = np.zeros(m, dtype=complex)
        row[:r] = coeff
        if np.linalg.norm(row) <= tol.rank_rel_tol * s[0]:
            eta_basis = np.eye(m, dtype=complex)
        else:
            eta_basis = kernel_basis(row.reshape(1, m), tol)
        return [(x, w_mat @ eta_basis[:, k]) for k in range(eta_basis.shape[1])]

    base_points = n * n + n
    base_xs = []
    for t in range(base_points):
        xi = _vandermonde_point(t, n)
        for x, h in pairs_for(xi):
            admit(x, h)
        base_xs.append(u_mat @ xi if transposed else u_mat.conj() @ xi)

    # Kernel-side family: h in ker V kills the condition for every x.
    for j in range(r, m):
        for x in base_xs:
            admit(x, w_mat[:, j])

    # Degenerate stratum: when rank V < n there are x with V^H x = 0
    # (or V^T x = 0), and then every h is a zero partner.
    if r < n:
        d = n - r
        null_x = u_mat[:, r:] if transposed else u_mat[:, r:].conj()
        for t in range(d * d + d):
            x = null_x @ _vandermonde_point(t, d)
            for j in range(m):
                admit(x, w_mat[:, j])

    # Saturation check: deterministic generic filler points until nothing new
    # is admitted for a full stall window.
    ext_rng = np.random.default_rng(_EXTENSION_SEED)
    stall_window = max(4, n)
    stall = 0
    extension_cap = 3 * base_points
    saturated = False
    for _ in range(extension_cap):
        if stall >= stall_window:
            saturated = True
            break
        xi = _random_unit(ext_rng, n)
        produced = False
        for x, h in pairs_for(xi):
            if admit(x, h):
                produced = True
        stall = 0 if produced else stall + 1
    else:
        saturated = stall >= stall_window
    return ZeroSet.from_pairs(n, m, kept, saturated=saturated, strong_vectors=tracker.vectors())


def weak_span_dim(zero_set: ZeroSet, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of span{x (x) h} over the zero set."""
    return span_dimension(zero_set.weak_vectors.T, tol)


def strong_span_dim(zero_set: ZeroSet, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of span{conj(x) (x) x (x) h} over the zero set."""
    return span_dimension(zero_set.strong_vectors.T, tol)
