"""Linear maps between matrix algebras, stored in block (Choi) form.

A map Phi from n x n to m x m complex matrices is represented by the nm x nm
block matrix C = sum_ij E_ij (x) Phi(E_ij), where E_ij are matrix units of the
input algebra.  This is the unnormalized convention: it differs from the
maximally-entangled-state convention by an overall factor of n.  The factor is
documented here once and is inert everywhere else in the package, because all
rank and span decisions downstream are scale-free.

Evaluation recovers the map as Phi(a) = Tr_in[C (a^T (x) 1_m)].

Constructors write the block array blocks[i, k, j, l] = Phi(E_ij)[k, l] with
one broadcast product and make the MapOperator through ``_from_blocks``;
``_image_table`` reads the images Phi(E_ij) back as a view.  No n^2 list of
images is built, and no other module reads the block layout.  ``trace_map``
and ``dephasing_map`` write their block matrices in closed form.

The alternating descent on g(x, h) = <h| Phi(|conj(x)><conj(x)|) |h> lives
here: the positivity heuristic refines its worst sample with it, and
``zeros`` runs it from many starts to find zero pairs (g = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, ZeroMap, ZeroOperator
from .linalg import DEFAULT_TOL, ToleranceConfig, as_matrix

__all__ = [
    "MapOperator",
    "NormalForm",
    "PositivityReport",
    "apply",
    "from_conjugation",
    "cp_map_from_kraus",
    "unital_normalization",
    "is_completely_positive",
    "is_positive_heuristic",
    "SearchOutcome",
    "identity_map",
    "transpose_map",
    "trace_map",
    "dephasing_map",
]


@dataclass(frozen=True, eq=False)
class MapOperator:
    """A linear map between matrix algebras in block (Choi) form.

    Immutable value object: the stored block matrix is set read-only, so a
    MapOperator can be shared freely across threads.  It memoizes the block
    array of its adjoint and its spectral scale on first use, for every
    caller to share; both are pure functions of that matrix, so racing
    threads compute equal values and sharing stays safe.
    """

    dim_in: int
    dim_out: int
    choi: np.ndarray

    def __post_init__(self):
        n, m = self.dim_in, self.dim_out
        if not (isinstance(n, int) and isinstance(m, int) and n >= 1 and m >= 1):
            raise DimensionMismatch("dim_in and dim_out must be positive integers")
        choi = as_matrix(self.choi)
        if choi.shape != (n * m, n * m):
            raise DimensionMismatch(
                f"block matrix has shape {choi.shape}, expected {(n * m, n * m)}"
            )
        if not _is_hermitian(choi):
            raise ValueError("block matrix is not Hermitian within tolerance")
        choi = choi.copy()
        choi.setflags(write=False)
        object.__setattr__(self, "choi", choi)

    @cached_property
    def _adjoint(self) -> np.ndarray:
        """Phi* under Tr(b^H Phi(a)) = Tr(Phi*(b)^H a), as the read-only C-order (m, n, m, n) array
        adjoint[k, i, l, j] = conj(blocks[i, k, j, l]); finite and Hermitian as the block matrix is."""
        n, m = self.dim_in, self.dim_out
        adjoint = np.conj(self.choi.reshape(n, m, n, m).transpose(1, 0, 3, 2), order="C")
        adjoint.setflags(write=False)
        return adjoint

    @cached_property
    def _scale(self) -> float:
        return float(np.linalg.norm(self.choi, 2))


def _is_hermitian(matrix: np.ndarray) -> bool:
    """Hermitian within tolerance: the one, scale-free rule, which MapOperator applies
    (``parse_map_file`` reports its failure as a schema error on ``choi``).

    The norms are taken of the matrix divided by its largest real or imaginary
    part, so they neither overflow nor underflow at any finite scale (the
    largest modulus itself can overflow).  The zero matrix passes; the scale
    window of map documents rejects it.
    """
    top = max(np.max(np.abs(matrix.real), initial=0.0), np.max(np.abs(matrix.imag), initial=0.0))
    if top == 0:
        return True
    unit = matrix / top
    gap = np.linalg.norm(unit - unit.conj().T)
    return gap <= DEFAULT_TOL.residual_rel_tol * max(np.linalg.norm(unit), gap)


@dataclass(frozen=True, eq=False)
class NormalForm:
    """Unital normal form Phi(a) = bridge^H Phi_1(a) bridge.

    ``unital_part`` maps into the image of Phi(1), represented concretely on
    C^image_dim; ``bridge`` is the image_dim x dim_out factor connecting it
    back to the original output space.
    """

    bridge: np.ndarray
    unital_part: MapOperator
    image_dim: int


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of the sampling-plus-descent positivity heuristic."""

    passed: bool
    worst_value: float
    worst_vector: np.ndarray


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one alternating descent.

    ``succeeded`` means the final pair is a zero within tolerance (residual
    at most residual_rel_tol times the spectral scale of the map); callers
    treat a non-succeeded outcome as "no zero found from this start".
    ``converged`` only says the objective stalled; the objective is
    nonincreasing over the half steps up to eigensolver roundoff.
    ``image`` is Phi(|conj(x)><conj(x)|) at the final x and ``spectrum``
    the eigendecomposition (w, u) of its Hermitian part, with h = u[:, 0];
    ``adjoint_spectrum`` is that of Phi*(|h><h|) when the descent computed
    it, else None.  Callers that examine the final pair further read these
    instead of evaluating the map again.
    """

    x: np.ndarray
    h: np.ndarray
    value: float
    residual: float
    converged: bool
    succeeded: bool
    image: np.ndarray = field(repr=False)
    spectrum: tuple = field(repr=False)
    adjoint_spectrum: tuple | None = field(repr=False)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def choi_spectral_scale(phi: MapOperator) -> float:
    """Largest singular value of the block matrix; the reference scale (memoized)."""
    return phi._scale


def apply(phi: MapOperator, a) -> np.ndarray:
    """Evaluate Phi(a) = Tr_in[C (a^T (x) 1)] for an n x n argument a."""
    a = as_matrix(a)
    n, m = phi.dim_in, phi.dim_out
    if a.shape != (n, n):
        raise DimensionMismatch(f"argument has shape {a.shape}, expected {(n, n)}")
    return np.einsum("ikjl,ij->kl", phi.choi.reshape(n, m, n, m), a)


def _image(phi: MapOperator, x) -> np.ndarray:
    """Phi(|conj(x)><conj(x)|): the einsum of ``apply``, without revalidating
    a vector the package built itself."""
    n, m = phi.dim_in, phi.dim_out
    return np.einsum("ikjl,ij->kl", phi.choi.reshape(n, m, n, m), np.outer(x.conj(), x))


def _image_table(phi: MapOperator) -> np.ndarray:
    """The read-only (n, n, m, m) view table[i, j] = Phi(E_ij) of the block matrix."""
    n, m = phi.dim_in, phi.dim_out
    return phi.choi.reshape(n, m, n, m).transpose(0, 2, 1, 3)


def _from_blocks(blocks: np.ndarray) -> MapOperator:
    """The MapOperator with block array blocks[i, k, j, l] = Phi(E_ij)[k, l]."""
    n, m = blocks.shape[:2]
    return MapOperator(n, m, blocks.reshape(n * m, n * m))


def from_conjugation(v, transposed: bool = False) -> MapOperator:
    """Conjugation map a -> V^H a V, or a -> V^H a^T V when transposed.

    V is n x m, mapping the n-dimensional input space of column vectors to
    the m-dimensional output space by conjugation.
    """
    v = as_matrix(v)
    if not np.any(v):
        raise ZeroOperator("conjugation by the zero operator is not a map")
    if transposed:
        # Phi(E_ij) = conj(v[j]) v[i]^T
        return _from_blocks(v.conj().T[None, :, :, None] * v[:, None, None, :])
    # Phi(E_ij) = conj(v[i]) v[j]^T
    return _from_blocks(v.conj()[:, :, None, None] * v[None, None, :, :])


def cp_map_from_kraus(kraus) -> MapOperator:
    """The completely positive map a -> sum_k K a K^H from m x n operators."""
    ops = [as_matrix(k) for k in kraus]
    if not ops:
        raise ValueError("at least one operator is required")
    m, n = ops[0].shape
    for k in ops[1:]:
        if k.shape != (m, n):
            raise DimensionMismatch("all operators must share one shape")
    # Phi(E_ij) = sum_k K[:, i] K[:, j]^H, summed in operator order from 0
    return _from_blocks(sum(k.T[:, :, None, None] * k.conj().T[None, None, :, :] for k in ops))


def unital_normalization(phi: MapOperator, tol: ToleranceConfig = DEFAULT_TOL) -> NormalForm:
    """Factor Phi through a unital map on the image of Phi(1).

    With A = Phi(1) and Q an orthonormal eigenbasis of its image, the unital
    part is Phi_1(a) = D^{-1/2} Q^H Phi(a) Q D^{-1/2} and the bridge is
    D^{1/2} Q^H, so that bridge^H Phi_1(a) bridge = Phi(a).  Meaningful for
    maps that are positive (the caller's obligation, checked heuristically
    elsewhere); a negative eigenvalue of A beyond tolerance is rejected.
    """
    a = _hermitize(apply(phi, np.eye(phi.dim_in)))
    eigvals, eigvecs = np.linalg.eigh(a)
    top = float(eigvals[-1])
    if top <= 0 or not np.any(eigvals > tol.rank_rel_tol * max(abs(eigvals[0]), top)):
        raise ZeroMap("the map sends the identity to zero")
    if eigvals[0] < -tol.rank_rel_tol * top:
        raise ValueError("Phi(1) has a negative eigenvalue; map is not positive")
    keep = eigvals > tol.rank_rel_tol * top
    lam = eigvals[keep]
    q = eigvecs[:, keep]
    k = int(lam.shape[0])
    inv_sqrt = 1.0 / np.sqrt(lam)
    images = q.conj().T @ _image_table(phi) @ q  # images[i, j] = Q^H Phi(E_ij) Q
    unital_part = _from_blocks(((inv_sqrt[:, None] * images) * inv_sqrt[None, :]).transpose(0, 2, 1, 3))
    bridge = np.sqrt(lam)[:, None] * q.conj().T
    return NormalForm(bridge=bridge, unital_part=unital_part, image_dim=k)


def is_completely_positive(phi: MapOperator, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Positive semidefiniteness of the block matrix, relative threshold."""
    eigvals = np.linalg.eigvalsh(_hermitize(phi.choi))
    scale = float(np.max(np.abs(eigvals))) if eigvals.size else 0.0
    return bool(eigvals[0] >= -tol.rank_rel_tol * scale)


def _random_unit(rng, dim) -> np.ndarray:
    """A normalized complex Gaussian draw: every random unit vector the package samples."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _normalize(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm == 0 or not np.isfinite(norm):
        raise ValueError("cannot normalize a zero or non-finite vector")
    return v / norm


def _h_step(phi, x):
    """Phi(|conj(x)><conj(x)|) and the eigendecomposition of its Hermitian
    part; the bottom eigenvector is the minimizer over h."""
    image = _image(phi, x)
    return image, np.linalg.eigh(_hermitize(image))


def _x_step(phi, h):
    # g(x, h) = <conj(x)| Phi*(|h><h|) |conj(x)>, so the minimizer over x is the conjugate
    # of the bottom eigenvector of the adjoint image: ``_image``'s einsum on Phi*'s blocks.
    return np.linalg.eigh(_hermitize(np.einsum("ikjl,ij->kl", phi._adjoint, np.outer(h, h.conj()))))


def _alternating_descent(phi, tol, x0=None, h0=None) -> SearchOutcome:
    """Minimize g(x, h) = <h| Phi(|conj(x)><conj(x)|) |h> by exact
    alternating eigenvector steps.

    The loop always exits holding a pair whose h is a bottom eigenvector of
    Phi(|conj(x)><conj(x)|); the pair residual therefore equals the bottom
    eigenvalue magnitude rather than its square root.
    """
    if (x0 is None) == (h0 is None):
        raise ValueError("exactly one of x0 and h0 must be given")
    scale = phi._scale
    stall = tol.convergence_tol * max(scale, np.finfo(float).tiny)
    g_prev = None
    if h0 is not None:
        w_adj, u_adj = _x_step(phi, _normalize(h0))
        x = u_adj[:, 0].conj()
        g_prev = float(w_adj[0])
    else:
        x = _normalize(x0)
    converged = False
    for _ in range(tol.max_iters):
        pair_x = x
        image, (w, u) = _h_step(phi, x)
        adjoint = None
        g = float(w[0])
        if g_prev is not None and abs(g_prev - g) <= stall:
            converged = True
            break
        g_prev = g
        adjoint = _x_step(phi, u[:, 0])
        w_adj, u_adj = adjoint
        g = float(w_adj[0])
        if abs(g_prev - g) <= stall:
            converged = True
            break
        g_prev = g
        x = u_adj[:, 0].conj()
    pair_h = u[:, 0]
    residual = float(np.linalg.norm(image @ pair_h))
    return SearchOutcome(
        x=pair_x,
        h=pair_h,
        value=float(w[0]),
        residual=residual,
        converged=converged,
        succeeded=residual <= tol.residual_rel_tol * scale,
        image=image,
        spectrum=(w, u),
        adjoint_spectrum=adjoint,
    )


# Random unit vectors the positivity heuristic samples before its descent.
_POSITIVITY_SAMPLES = 64


def is_positive_heuristic(
    phi: MapOperator,
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> PositivityReport:
    """Sampling-plus-descent check that Phi maps PSD matrices to PSD matrices.

    Minimizes the smallest eigenvalue of Phi(|y><y|) over
    ``_POSITIVITY_SAMPLES`` random unit vectors y, then refines the worst
    sample by alternating eigenvector descent.  A certified "True" here is
    still heuristic: it can be fooled by maps whose negativity region is
    tiny, which is why certificates carry a conditional note.  The RNG seed
    is explicit so results are reproducible.
    """
    n = phi.dim_in
    rng = np.random.default_rng(seed)
    scale = choi_spectral_scale(phi)
    worst_value = np.inf
    worst_vector = None
    for _ in range(_POSITIVITY_SAMPLES):
        y = _random_unit(rng, n)
        val = float(np.linalg.eigvalsh(_hermitize(_image(phi, y.conj())))[0])
        if val < worst_value:
            worst_value = val
            worst_vector = y
    outcome = _alternating_descent(phi, tol, x0=worst_vector.conj())
    if outcome.value < worst_value:
        worst_value = float(outcome.value)
        worst_vector = outcome.x.conj()
    passed = worst_value >= -tol.residual_rel_tol * scale
    return PositivityReport(passed=passed, worst_value=worst_value, worst_vector=worst_vector)


def identity_map(n: int) -> MapOperator:
    """Phi(a) = a on the n x n matrices."""
    return from_conjugation(np.eye(n))


def transpose_map(n: int) -> MapOperator:
    """Phi(a) = a^T on the n x n matrices."""
    return from_conjugation(np.eye(n), transposed=True)


def trace_map(n: int, m: int | None = None) -> MapOperator:
    """Phi(a) = Tr(a) 1_m, the completely depolarizing-to-identity map."""
    m = n if m is None else m
    return MapOperator(n, m, np.eye(n * m, dtype=complex))


def dephasing_map(n: int) -> MapOperator:
    """Phi(a) = sum_i a_ii E_ii, the completely decohering map."""
    # block matrix sum_i E_ii (x) E_ii: ones at the diagonal positions (i, i)
    return MapOperator(n, n, np.diag(np.eye(n, dtype=complex).ravel()))
