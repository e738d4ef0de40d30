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
``_image_table`` reads the images Phi(E_ij) back as a view, and
``_kraus_stack`` a Kraus stack off the spectrum of C (or of C^G), which
only ``_is_psd`` tests for positive semidefiniteness.  No n^2 list of
images is built, and no other module reads the block layout.  ``trace_map``
and ``dephasing_map`` write their block matrices in closed form.

A residual of the map is zero at or below its one zero bar,
``MapOperator._zero_bar``: ``_is_psd``, the descent, the positivity
heuristic and every zero test of ``zeros`` read it.

The alternating descent on g(x, h) = <h| Phi(|conj(x)><conj(x)|) |h> lives
here: the positivity heuristic refines its worst sample with it, and
``zeros`` runs it from many starts to find zero pairs (g = 0).  It advances
a stack of starts, one h step and one x step per iteration, and retires a
start by one test; a single start is a stack of one.  Both steps, the
heuristic's samples and every image ``zeros`` evaluates come from the one
rank-one evaluator, ``_rank_one_images``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, ZeroMap, ZeroOperator
from .linalg import DEFAULT_TOL, ToleranceConfig, _kept, _norm, _rank, as_matrix

__all__ = [
    "MapOperator",
    "NormalForm",
    "PositivityReport",
    "apply",
    "from_conjugation",
    "cp_map_from_kraus",
    "unital_normalization",
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
    array of its adjoint and the eigendecompositions of its block matrix, of
    its partial transpose and of Phi(1) on first use, for every caller to
    share, and reads its spectral scale and its zero bar from the first; all
    are pure functions of that matrix, kept read-only, so racing threads
    compute equal values and sharing stays safe.
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
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``_read_only_eigh`` of the block matrix: ascending eigenvalues w and orthonormal
        eigenvectors u of its Hermitian part; the one eigendecomposition of C."""
        return _read_only_eigh(self.choi)

    @cached_property
    def _partial_transpose_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``_spectrum`` of the partial transpose C^G on the input factor, the block matrix of
        a -> Phi(a^T); partial transposition commutes with taking the Hermitian part entry by entry."""
        n, m = self.dim_in, self.dim_out
        return _read_only_eigh(self.choi.reshape(n, m, n, m).transpose(2, 1, 0, 3).reshape(n * m, n * m))

    @cached_property
    def _unit_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``_read_only_eigh`` of Phi(1), which ``_unit_image`` cuts at a tolerance."""
        return _read_only_eigh(apply(self, np.eye(self.dim_in)))

    @cached_property
    def _scale(self) -> float:
        w = self._spectrum[0]
        return float(max(w[-1], -w[0]))

    @cached_property
    def _zero_bar(self) -> float:
        """residual_rel_tol * scale: the one bar at or below which a residual of this map is zero."""
        return DEFAULT_TOL.residual_rel_tol * self._scale


def _read_only_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of the Hermitian part of ``matrix``, as read-only arrays."""
    w, u = np.linalg.eigh(_hermitize(matrix))
    w.setflags(write=False)
    u.setflags(write=False)
    return w, u


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
    """Result of the alternating descent from one start.

    ``spectrum`` is the eigendecomposition (w, u) of the Hermitian part of
    Phi(|conj(x)><conj(x)|) at the final x and ``adjoint_spectrum``
    that of Phi*(|h><h|), the x step at h; h = u[:, 0] and the objective
    ``value`` = w[0] are read off ``spectrum``.  ``succeeded`` means the pair
    is a zero: its residual is at most the map's ``_zero_bar``; callers treat
    a non-succeeded outcome as "no zero found from this start".  The
    objective is nonincreasing over the half steps up to eigensolver
    roundoff.  A stacked descent returns one outcome per start, bitwise the
    outcome of that start alone; its arrays are rows of the stack's, and no
    later step writes to them.
    """

    x: np.ndarray
    residual: float
    succeeded: bool
    spectrum: tuple = field(repr=False)
    adjoint_spectrum: tuple = field(repr=False)

    @property
    def h(self) -> np.ndarray:
        return self.spectrum[1][:, 0]

    @property
    def value(self) -> float:
        return float(self.spectrum[0][0])


def _hermitize(m: np.ndarray) -> np.ndarray:
    # of a matrix or of each matrix of a stack; halved before the sum, so that entries near the float
    # maximum cannot overflow
    return 0.5 * m + 0.5 * m.conj().swapaxes(-1, -2)


def choi_spectral_scale(phi: MapOperator) -> float:
    """Largest eigenvalue modulus (the largest singular value) of the block matrix; the reference
    scale, read from the memoized spectrum."""
    return phi._scale


def apply(phi: MapOperator, a) -> np.ndarray:
    """Evaluate Phi(a) = Tr_in[C (a^T (x) 1)] for an n x n argument a."""
    a = as_matrix(a)
    n, m = phi.dim_in, phi.dim_out
    if a.shape != (n, n):
        raise DimensionMismatch(f"argument has shape {a.shape}, expected {(n, n)}")
    return np.einsum("ikjl,ij->kl", phi.choi.reshape(n, m, n, m), a)


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
    # Phi(E_ij) = conj(v[i]) v[j]^T; transposed, conj(v[j]) v[i]^T, the partial transpose
    blocks = v.conj()[:, :, None, None] * v[None, None, :, :]
    return _from_blocks(blocks.transpose(2, 1, 0, 3) if transposed else blocks)


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


def _unit_image(phi: MapOperator, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The one rank decision on Phi(1): its eigenvalues lam whose modulus (a singular value)
    exceeds rank_rel_tol times the largest, ascending, and their orthonormal eigenvectors Q,
    a basis of the image, from the map's one eigh of Phi(1)."""
    w, v = phi._unit_spectrum
    keep = _kept(w, tol)
    return w[keep], v[:, keep]


def _normal_form_table(phi: MapOperator, lam: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The (n, n, r, r) table W^H Phi(E_ij) W of the unital normal form: W = Q L^(-1/2), L > 0 from ``_unit_image``."""
    w = q / np.sqrt(lam)
    return w.conj().T @ _image_table(phi) @ w


def unital_normalization(phi: MapOperator, tol: ToleranceConfig = DEFAULT_TOL) -> NormalForm:
    """Factor Phi through a unital map on the image of Phi(1).

    With A = Phi(1) and Q an orthonormal eigenbasis of its image, the unital
    part is Phi_1(a) = D^{-1/2} Q^H Phi(a) Q D^{-1/2} and the bridge is
    D^{1/2} Q^H, so that bridge^H Phi_1(a) bridge = Phi(a).  Meaningful for
    maps that are positive (the caller's obligation: ``_positivity_proof``
    proves it for CP and co-CP maps, and the heuristic checks the rest); a
    negative eigenvalue of A beyond tolerance is rejected.
    """
    lam, q = _unit_image(phi, tol)
    if not np.any(lam > 0):
        raise ZeroMap("the map sends the identity to zero")
    if np.any(lam < 0):
        raise ValueError("Phi(1) has a negative eigenvalue; map is not positive")
    unital_part = _from_blocks(_normal_form_table(phi, lam, q).transpose(0, 2, 1, 3))
    bridge = np.sqrt(lam)[:, None] * q.conj().T
    return NormalForm(bridge=bridge, unital_part=unital_part, image_dim=len(lam))


def _block_spectrum(phi: MapOperator, transposed: bool) -> tuple[np.ndarray, np.ndarray]:
    return phi._partial_transpose_spectrum if transposed else phi._spectrum


def _is_psd(phi: MapOperator, transposed: bool) -> bool:
    """The one PSD test of C (``transposed``: of C^G), which proves Phi CP (co-CP): lambda_min >=
    -``_zero_bar``, the heuristic's pass threshold, whatever the rank tolerance."""
    return _block_spectrum(phi, transposed)[0][0] >= -phi._zero_bar


def _cp_rank(phi: MapOperator, tol: ToleranceConfig = DEFAULT_TOL, transposed: bool = False) -> int | None:
    """Rank of C when Phi is completely positive (``transposed``: of C^G, when co-CP), else None:
    its eigenvalues above the rank cut, as negative ones that pass ``_is_psd`` are noise."""
    if not _is_psd(phi, transposed):
        return None
    return _rank(np.maximum(_block_spectrum(phi, transposed)[0], 0.0), tol)


def _kraus_stack(phi: MapOperator, k: int, transposed: bool) -> np.ndarray:
    """The (k, m, n) stack K_s = sqrt(lambda_s) u_s (u_s reshaped n x m, then transposed) of the top k
    eigenpairs of C (``transposed``: C^G): Phi(a) = sum_s K_s a K_s^H (a^T) when the rest vanish."""
    n, m = phi.dim_in, phi.dim_out
    w, u = _block_spectrum(phi, transposed)
    return (np.sqrt(w[-k:]) * u[:, -k:]).T.reshape(k, n, m).transpose(0, 2, 1)


def _positivity_proof(phi: MapOperator) -> str | None:
    """"C" when C is PSD, else "C^G" when C^G is (its spectrum is read only then), else None.  Either proves
    Phi positive: <h|Phi(|y><y|)|h> = <conj(y) (x) h| C |conj(y) (x) h> = <y (x) h| C^G |y (x) h>."""
    for transposed, block in ((False, "C"), (True, "C^G")):
        if _is_psd(phi, transposed):
            return block
    return None


def _ginibre(rng, *shape) -> np.ndarray:
    """A complex Gaussian array of ``shape``: its whole real part drawn first, then its imaginary part."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_unit(rng, dim) -> np.ndarray:
    """A normalized complex Gaussian draw: every random unit vector the package samples."""
    v = _ginibre(rng, dim)
    return v / _norm(v)


def _gaussian_rows(rng, count, dim) -> np.ndarray:
    """``count`` complex Gaussian points of C^dim as rows, unnormalized, from one call.

    It reads the stream in the order of ``count`` calls of ``_random_unit`` (real part, then
    imaginary part, per point), so normalizing its rows gives their draws up to rounding.  That
    per-point layout is why it is not ``_ginibre(rng, count, dim)``, which reads every real part
    before any imaginary one.
    """
    g = rng.standard_normal((count, 2, dim))
    return g[:, 0] + 1j * g[:, 1]


def _normalize(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm == 0 or not np.isfinite(norm):
        raise ValueError("cannot normalize a zero or non-finite vector")
    return v / norm


def _rank_one_images(phi, xs, adjoint=False) -> np.ndarray:
    """Phi(|conj(x)><conj(x)|) for each row x of ``xs``, as one einsum over the stack (the einsum of
    ``apply``, without revalidating vectors the package built itself); ``adjoint``: the same einsum on
    Phi*'s blocks, which at the rows conj(h) gives Phi*(|h><h|).  The one rank-one evaluator."""
    n, m = phi.dim_in, phi.dim_out
    blocks = phi._adjoint if adjoint else phi.choi.reshape(n, m, n, m)
    return np.einsum("ikjl,sij->skl", blocks, xs.conj()[:, :, None] * xs[:, None, :])


def _h_step(phi, xs):
    """The images of the rows x of ``xs`` and the eigendecompositions of their Hermitian parts; each
    bottom eigenvector is the minimizer over h."""
    images = _rank_one_images(phi, xs)
    return images, np.linalg.eigh(_hermitize(images))


def _x_step(phi, hs):
    # g(x, h) = <conj(x)| Phi*(|h><h|) |conj(x)>, so the minimizer over x is the conjugate of the bottom
    # eigenvector of the adjoint image, for each row h of ``hs``
    return np.linalg.eigh(_hermitize(_rank_one_images(phi, hs.conj(), adjoint=True)))


def _alternating_descent(phi, starts) -> list[SearchOutcome]:
    """Minimize g(x, h) = <h| Phi(|conj(x)><conj(x)|) |h> by exact alternating eigenvector steps, from
    each start of ``starts``, a sequence of ("x", x0) and ("h", h0) pairs; one outcome per start, in order.

    The starts advance as one stack: each iteration is one h step and one x step over the starts still
    running, each one einsum and one ``eigh``.  One test then retires a start: the objective stalled
    across the h step or across the x step, or the iteration cap is reached.  A retired start's pair is
    its x with h the bottom eigenvector of Phi(|conj(x)><conj(x)|), so the pair residual equals the
    bottom eigenvalue magnitude rather than its square root, and its outcome carries the x step at that
    h.  Each start keeps its own numbers, bitwise those of a stack of one.  The stall threshold and the
    iteration cap are the fixed ones of ``DEFAULT_TOL``, and the residual is judged against the map's
    ``_zero_bar``.
    """
    stall = DEFAULT_TOL.convergence_tol * max(phi._scale, np.finfo(float).tiny)
    count = len(starts)
    on_x = [i for i, (side, _) in enumerate(starts) if side == "x"]
    on_h = [i for i, (side, _) in enumerate(starts) if side == "h"]
    x = np.empty((count, phi.dim_in), dtype=complex)
    g_prev = np.full(count, np.nan)  # the objective before the first h step: none on the x side
    if on_x:
        x[on_x] = [_normalize(starts[i][1]) for i in on_x]
    if on_h:
        w_adj, u_adj = _x_step(phi, np.array([_normalize(starts[i][1]) for i in on_h]))
        x[on_h] = u_adj[:, :, 0].conj()
        g_prev[on_h] = w_adj[:, 0]
    outcomes = [None] * count
    rows = np.arange(count)  # the start of each row of the stack still running
    iteration = 0
    while rows.size:
        iteration += 1
        images, (w, u) = _h_step(phi, x)
        w_adj, u_adj = _x_step(phi, u[:, :, 0])
        stalled = (np.abs(g_prev - w[:, 0]) <= stall) | (np.abs(w[:, 0] - w_adj[:, 0]) <= stall)
        stopped = stalled | (iteration == DEFAULT_TOL.max_iters)
        for r in np.flatnonzero(stopped):
            residual = _norm(images[r] @ u[r][:, 0])
            outcomes[rows[r]] = SearchOutcome(
                x=x[r],
                residual=residual,
                succeeded=residual <= phi._zero_bar,
                spectrum=(w[r], u[r]),
                adjoint_spectrum=(w_adj[r], u_adj[r]),
            )
        going = ~stopped
        rows, g_prev, x = rows[going], w_adj[going, 0], u_adj[going, :, 0].conj()
    return outcomes


# Random unit vectors the positivity heuristic samples before its descent.
_POSITIVITY_SAMPLES = 64


def is_positive_heuristic(phi: MapOperator, seed: int = 0) -> PositivityReport:
    """Sampling-plus-descent check that Phi maps PSD matrices to PSD matrices.

    Minimizes the smallest eigenvalue of Phi(|y><y|) over
    ``_POSITIVITY_SAMPLES`` random unit vectors y, drawn one by one and
    evaluated as one stack, then refines the worst sample (the first of
    equal minima) by alternating eigenvector descent.  A certified "True"
    here is still heuristic: it can be fooled by maps whose negativity
    region is tiny, which is why certificates carry a conditional note.
    The RNG seed is explicit so results are reproducible.
    """
    rng = np.random.default_rng(seed)
    ys = np.array([_random_unit(rng, phi.dim_in) for _ in range(_POSITIVITY_SAMPLES)])
    values = np.linalg.eigvalsh(_hermitize(_rank_one_images(phi, ys.conj())))[:, 0]
    worst = int(np.argmin(values))
    worst_value, worst_vector = float(values[worst]), ys[worst]
    outcome = _alternating_descent(phi, [("x", worst_vector.conj())])[0]
    if outcome.value < worst_value:
        worst_value, worst_vector = outcome.value, outcome.x.conj()
    passed = worst_value >= -phi._zero_bar
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
