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
  conjugation maps, which is invisible from generic x starts.  The starts
  run in the chunks of the stop rule below, each descended as one stack.
  The full near-null eigenspaces on both sides of every converged pair are
  mined for further candidates, from the eigendecompositions that every
  descent outcome carries and one stacked x step at the other near-null h's
  of the whole chunk.  The chunk's candidates are offered at once: one
  projection off the admitted basis drops each whose strong vector already
  lies in the span before its residual is computed.
* ``_kraus_zeros`` writes down exact zeros of Phi(a) = sum_s K_s a K_s^H
  (or K_s a^T K_s^H) from its Kraus stack; a conjugation a -> V^H a V (or
  V^H a^T V) is its one-operator case K = V^H, which
  ``analytic_zeros_conjugation`` runs.  At a fixed x the zero condition is
  linear in h; a chunk of points is row-normalized once and cut by one
  ``linalg._row_kernels`` solve (a conjugation's rows in the closed form
  the oracle shares), and each point and each of its orthonormal kernel
  columns is offered as it is.

``find_zeros`` picks the route from the spectrum of C (the map's one
cached ``eigh``), not from how the map was written down, trying in order:

1. No zeros, proven: for unit x and h, ||Phi(|conj(x)><conj(x)|) h|| >=
   <x (x) h| C |x (x) h> >= lambda_min(C), so when lambda_min(C) exceeds the
   map's zero bar the empty set is returned, saturated, without a descent.
2. Kraus stack: when Phi is CP, or else co-CP, of rank 0 < k < nm (its top
   k eigenvalues, ``maps._cp_rank``) with every other within the zero bar
   (they bound the residuals of the stack's pairs; a map of rank
   k only at a larger ``rank_rel_tol`` goes on to the harvest), Phi(a) =
   sum_s K_s a K_s^H (or K_s a^T K_s^H) for the stack ``maps._kraus_stack``,
   whatever kind of document wrote the map.  With
   y = conj(x) (transposed: y = x), (x, h) is a zero iff h^H M(y) = 0 for
   M(y) = [K_1 y ... K_k y], m x k, of rank r at a generic point.  On the
   common kernel of the K_s, M(y) = 0 and every h is a partner; random
   points miss it, so it is sampled on its own.  If r < m (or n = 1, one
   point), every x has partners: random points are drawn at once, and
   their left kernels are cut one chunk at a time, one ``_row_kernels``
   solve per chunk (in closed form at k = 1, else one stacked SVD), only
   as far as the search runs.  If r = m, M(y) R
   (R = 1 at k = m, else a fixed random k x m matrix) is singular at every
   zero, so on a line y = a + t b the zeros lie among the roots of
   det(A + tB) = 0, the eigenvalues of -B^-1 A.  At n = 2 one line is all
   of P^1 (with t = infinity, the point b): one drawn line finds every zero
   off the common kernel, and saturates with it.  At n >= 3 with k = m,
   random lines are drawn until a stall window admits nothing.  Other
   points where M drops below its generic rank are not sought; missing
   zeros can only lower the spans.  k > m at n >= 3 leaves this, the
   primal side, open; the map then runs the dual side, the map m -> n of
   the same kind with the stack K_s^T: as h^H K_s y is bilinear, a CP
   Phi's zeros (x, h) are its zeros (h, x), a co-CP Phi's its zeros
   (conj(h), conj(x)).  They are routed as above with n and m swapped and
   offered to Phi's admission with residuals under Phi.  Its common kernel
   is 0, as r = m on the primal side.  Points and lines come from a fixed
   generator, and every search is capped at n^2 m + window draws (d^2 m +
   window on a common kernel of dimension d), the most a growing span
   there can use, and its strong span has a proven ceiling: d^2 m on the
   common kernel, else min(n^2 m - rank Phi(1), n(nm - k)), which
   ``certify_exposed`` checks; on either side, n and m are Phi's.
3. Anything else (a CP or co-CP map with k > m and k > n at n, m >= 3):
   the harvest.

Every route evaluates Phi(|conj(x)><conj(x)|) with ``maps._rank_one_images``,
one stacked call per cut chunk of points (Kraus routes; on the dual side per
point, over its kernel columns, Phi's x) or per converged
pair's mined candidates that the chunk's projections keep (harvest), and offers
every candidate with its residual under the image of its x to one
admission object.  It keeps a pair only if the residual is
within the map's zero bar, ``maps.MapOperator._zero_bar`` (residual_rel_tol
times the spectral scale), and the strong vector grows the running span, so
the pair list of a ZeroSet is always a spanning subset.  Growth is decided
by the residual of the normalized strong vector against an orthonormal
basis of the kept ones (classical Gram-Schmidt, with a second pass after
heavy cancellation, see ``_Admission``), at ``_SCREEN_TOL``; no SVD runs
per candidate.  ``offer`` builds each candidate's strong vector
once, as an outer product reshaped flat (entry for entry the Kronecker
product, without its per-call overhead).  The ZeroSet keeps only the
admitted pairs and builds their weak and strong vectors as rows, with the
same builders over the stacked pairs, when they are read.  The span
dimensions reported by ``weak_span_dim`` and ``strong_span_dim`` come from
one SVD of those rows at the shared relative threshold ``rank_rel_tol``.
On exact zeros the strong count equals the number of kept pairs;
``certify_exposed`` issues no certificate when the two differ.  Every
search stops by one rule, owned by ``_stalls``: a window of consecutive starts, points or lines that admit
nothing ends it (``saturated``), on an exact route so does an admitted count
that reaches the search's proven ceiling (``saturated``: the span is
complete), or else its cap does.  Each route is a chunk function that the
driver calls with chunks that never outrun the window, so nothing runs after
the stall: the harvest descends a chunk of starts as one stack, the Kraus
routes cut a chunk of points with one solve or draw a chunk of pencil lines;
at the ceiling they offer no further point of a cut chunk.  The harvest has
no ceiling: its overshoot of one is what shows that it admitted a non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceConfig, as_matrix, kernel_basis, numerical_rank, span_dimension
from .linalg import _norm, _row_kernels
from .maps import MapOperator, _block_spectrum, _cp_rank, _kraus_stack, _unit_image, from_conjugation
from .maps import _alternating_descent, _gaussian_rows, _ginibre, _random_unit, _rank_one_images, _x_step

__all__ = [
    "ZeroPair",
    "ZeroSet",
    "find_zeros",
    "harvest_zeros",
    "analytic_zeros_conjugation",
    "weak_span_dim",
    "strong_span_dim",
]

# Admission threshold of the span basis: a unit candidate whose residual
# against the admitted basis is at or below this is dependent.
_SCREEN_TOL = 1e-7

# Admission runs a second Gram-Schmidt pass only when the first leaves at most this fraction of the
# unit candidate: below it the first pass may have lost orthogonality to the basis (kappa = 10).
_REORTHOGONALIZE = 0.1

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
# Each builds the vector of one pair (x, h), or one row per pair of the
# stacks xs (k, n) and hs (k, m).
def _weak_vector(x, h) -> np.ndarray:
    """x (x) h."""
    return (x[..., :, None] * h[..., None, :]).reshape(*x.shape[:-1], x.shape[-1] * h.shape[-1])


def _strong_vector(x, h) -> np.ndarray:
    """conj(x) (x) x (x) h."""
    n, m = x.shape[-1], h.shape[-1]
    return ((x.conj()[..., :, None] * x[..., None, :])[..., None] * h[..., None, None, :]).reshape(*x.shape[:-1], n * n * m)


@dataclass(frozen=True)
class ZeroSet:
    """A spanning collection of zero pairs of one map.

    The pairs are all it stores: row i of ``weak_vectors`` (k x nm) and of
    ``strong_vectors`` (k x n^2 m) is built from ``pairs[i]`` on each read,
    in one broadcast over the stacked pairs.  ``saturated`` records whether
    enumeration stopped because further searching stopped producing new
    directions, or the set is proven complete (as opposed to running out of
    budget).
    """

    dim_in: int
    dim_out: int
    pairs: list[ZeroPair]
    saturated: bool

    def _stacked(self) -> tuple[np.ndarray, np.ndarray]:
        k = len(self.pairs)
        xs = np.array([p.x for p in self.pairs], dtype=complex).reshape(k, self.dim_in)
        return xs, np.array([p.h for p in self.pairs], dtype=complex).reshape(k, self.dim_out)

    @property
    def weak_vectors(self) -> np.ndarray:
        return _weak_vector(*self._stacked())

    @property
    def strong_vectors(self) -> np.ndarray:
        return _strong_vector(*self._stacked())


class _Admission:
    """The zero pairs admitted so far, and the one rule that admits them.

    It is built on one map and reads its dimensions, its zero bar and its
    rank-one images from it.  A candidate whose residual exceeds the map's
    ``_zero_bar`` is rejected; otherwise its normalized strong vector is
    projected off an orthonormal basis of the admitted ones by classical
    Gram-Schmidt, and the pair is admitted if the residual stays above
    ``_SCREEN_TOL``.  One pass loses orthogonality in floating point only in
    proportion to the cancellation it suffered, so a second pass runs only
    when the first leaves at most ``_REORTHOGONALIZE`` of the candidate's
    norm (Kahan's criterion, Parlett 1980, section 6-9); two passes restore
    orthogonality to working precision ("twice is enough", Giraud, Langou and
    Rozloznik 2005).  ``offer`` takes one candidate; ``offer_chunk`` takes
    the harvest's mined candidates of one descended chunk, projects them all
    off the basis with one product, drops those at or below ``_SCREEN_TOL``
    before their residuals are computed, and runs each survivor through the
    same rule against only the rows admitted since.  The basis only admits:
    the reported span dimension is the final SVD of the kept vectors
    (``strong_span_dim``), which the ZeroSet builds again from the pairs.
    """

    def __init__(self, phi: MapOperator):
        n, m = phi.dim_in, phi.dim_out
        dim = n * n * m
        self._phi = phi
        self._bar = phi._zero_bar
        self._basis = np.empty((dim, dim), dtype=complex)
        self.pairs: list[ZeroPair] = []

    def offer(self, x, h, residual: float) -> bool:
        if residual > self._bar:
            return False
        vec = _strong_vector(x, h)
        norm = _norm(vec)
        return norm > 0 and self._admit(x, h, residual, vec / norm, 0)

    def offer_chunk(self, blocks) -> list[bool]:
        """Offer each block (xs, hs) in turn, each candidate with its residual under one stacked image per
        block; whether each block admitted any.  One product projects the chunk off the basis as it stood
        at its start; a block's survivors are projected off the rows admitted since and screened again."""
        start = len(self.pairs)
        xs, hs = (np.concatenate(parts) for parts in zip(*blocks))
        resids = _strong_vector(xs, hs)
        resids /= np.linalg.norm(resids, axis=1, keepdims=True)
        resids = _project_off(resids, self._basis[:start]) if start else resids
        kept, flags, lo = np.linalg.norm(resids, axis=1) > _SCREEN_TOL, [], 0
        for size in [len(block[0]) for block in blocks]:
            rows, lo = lo + np.flatnonzero(kept[lo : lo + size]), lo + size
            done = len(self.pairs)
            if done > start and rows.size:  # off the rows admitted since the chunk's start
                resids[rows] = _project_off(resids[rows], self._basis[start:done])
                rows = rows[np.linalg.norm(resids[rows], axis=1) > _SCREEN_TOL]
            images = _rank_one_images(self._phi, xs[rows]) if rows.size else ()
            residuals = [_norm(image @ hs[i]) for i, image in zip(rows, images)]
            flags.append(any([residual <= self._bar and self._admit(xs[i], hs[i], residual, resids[i], done)
                              for i, residual in zip(rows, residuals)]))
        return flags

    def _admit(self, x, h, residual: float, resid, done: int) -> bool:
        """Admit (x, h) if ``resid``, its unit strong vector already projected off the first ``done``
        basis rows, keeps a residual above ``_SCREEN_TOL`` off the rest, and after a second pass over
        the whole basis when the first left at most ``_REORTHOGONALIZE``."""
        k = len(self.pairs)
        resid = _project_off(resid, self._basis[done:k])
        rnorm = _norm(resid)
        if _SCREEN_TOL < rnorm <= _REORTHOGONALIZE:
            resid = _project_off(resid, self._basis[:k])
            rnorm = _norm(resid)
        if rnorm <= _SCREEN_TOL:
            return False
        self._basis[k] = resid / rnorm
        self.pairs.append(ZeroPair(x=x, h=h, residual=residual))
        return True

    def offer_all(self, candidates) -> bool:
        """Offer every (x, h, residual) in turn; whether any was admitted."""
        return any([self.offer(x, h, residual) for x, h, residual in candidates])

    def zero_set(self, saturated) -> ZeroSet:
        return ZeroSet(self._phi.dim_in, self._phi.dim_out, self.pairs, bool(saturated))


def _project_off(vecs, basis) -> np.ndarray:
    """A vector, or each row of a stack, minus its projection on the orthonormal rows of ``basis``; the
    coefficients <q_i, v> are taken as conj(conj(v) Q^T), with no copy of Q."""
    return vecs - (vecs.conj() @ basis.T).conj() @ basis


def _stalls(offer, window: int, cap: int, full=lambda: False) -> bool:
    """Run a search's units in chunks until ``window`` consecutive flags are False, ``full()`` (an exact
    route's admitted count reached its ceiling) holds or ``cap`` units have run; whether it stopped on
    the window or on ``full()``.  ``offer(done, size)`` runs units done, ..., done + size - 1, none once
    ``full()`` holds, and returns one admitted flag per unit that produced one.  A chunk is never longer
    than the rest of the window, so every unit run is one a unit-by-unit loop runs too, and none runs
    after the stall or the ceiling."""
    done = stall = 0
    while done < cap and stall < window and not full():
        size = min(window - stall, cap - done)
        for flag in offer(done, size):
            stall = 0 if flag else stall + 1
        done += size
    return stall >= window or full()


def _mine_chunk(phi, outcomes):
    """Candidate zero pairs at the converged pairs of a chunk: one block per pair, rows xs (c, n) and hs (c, m).

    Every near-null eigenvector on either side is a candidate: the bottom eigenspace of
    Phi(|conj(x)><conj(x)|) may be degenerate (m - 1 dimensional for conjugation maps), and likewise on
    the adjoint side.  At each near-null h = u_i, in order, come (x, u_i) and then (conj(v_j), u_i) for
    each near-null eigenvector v_j of the x step at u_i; slot 0, the pair itself, always comes first.
    The x step at u_0 comes with the outcome, those at the chunk's other near-null h run as one stack.
    Admission checks each residual, so mining can only add genuine zeros."""
    bar, n = phi._zero_bar, phi.dim_in
    w, u = (np.array(a) for a in zip(*[o.spectrum for o in outcomes]))
    w_adj, u_adj = (np.array(a) for a in zip(*[o.adjoint_spectrum for o in outcomes]))
    hs, near, first = u.swapaxes(1, 2), np.abs(w) <= bar, np.arange(w.shape[1]) == 0  # hs[p, i]: u_i of pair p
    others = near & ~first
    w2 = np.full((*w.shape, n), np.inf)  # the x step's eigenvalues at each near-null u_i, inf elsewhere
    xs = np.empty((*w.shape, 1 + n, n), dtype=complex)  # at each u_i: x, then each eigenvector, conjugated
    xs[:, :, 0] = np.array([o.x for o in outcomes])[:, None]
    xs[:, 0, 1:], w2[:, 0] = u_adj.conj().swapaxes(1, 2), w_adj
    if others.any():
        w2[others], u2 = _x_step(phi, hs[others])
        xs[others, 1:] = u2.conj().swapaxes(1, 2)
    take = np.concatenate([(near | first)[:, :, None], (np.abs(w2) <= bar) & near[:, :, None]], axis=2)
    xs, hs = xs[take], np.broadcast_to(hs[:, :, None], (*take.shape, hs.shape[-1]))[take]
    ends = np.cumsum(take.sum(axis=(1, 2))).tolist()
    return [(xs[lo:hi], hs[lo:hi]) for lo, hi in zip([0, *ends], ends)]


def _budget(phi: MapOperator, starts: int | None) -> int:
    """The harvest's start budget: ``starts``, by default 50 * n * m."""
    budget = 50 * phi.dim_in * phi.dim_out if starts is None else int(starts)
    if budget < 1:
        raise ValueError("starts must be at least 1")
    return budget


def find_zeros(phi: MapOperator, seed: int = 0, starts: int | None = None, tol: ToleranceConfig = DEFAULT_TOL) -> ZeroSet:
    """The zero set of Phi by the route its Choi spectrum proves (see the module docstring).

    A CP or co-CP map takes the Kraus route, on its primal or else its dual
    side, unless k > m and k > n at n, m >= 3; that map, and any other,
    takes the harvest.

    ``seed`` and ``starts`` are the harvest's (an empty budget is rejected on
    every route); a zero set the spectrum proves reports ``saturated``.
    ``tol`` decides the rank k of C (or of C^G) that picks the Kraus route,
    and that route's ranks; the zero-free test and the Kraus route's check of
    the discarded eigenvalues read the map's ``_zero_bar``, whatever ``tol``.
    """
    n, m = phi.dim_in, phi.dim_out
    _budget(phi, starts)
    if phi._spectrum[0][0] > phi._zero_bar:
        return ZeroSet(n, m, [], saturated=True)
    for transposed in (False, True):
        # Phi CP (co-CP) of rank k, kept as its top k eigenvalues; the discarded ones bound the
        # residuals of the pairs of the Kraus stack, so they must be within the zero bar (w[0] is)
        k, w = _cp_rank(phi, tol, transposed), _block_spectrum(phi, transposed)[0]
        if k is not None and 0 < k < n * m and w[-k - 1] <= phi._zero_bar:
            zs = _kraus_zeros(phi, _kraus_stack(phi, k, transposed), transposed, tol)
            if zs is not None:
                return zs
    return harvest_zeros(phi, seed=seed, starts=starts)


def harvest_zeros(phi: MapOperator, seed: int = 0, starts: int | None = None) -> ZeroSet:
    """Multistart zero harvest; keeps a pair only if it grows the strong span.

    Runs alternating descents from ``starts`` seeded random starts (default
    50 * n * m), alternating x-side and h-side starts, and stops early once
    ``_STALL_BUDGET`` consecutive starts produce nothing new (this includes
    starts that found no zero at all, so maps without zeros stall quickly and
    still report ``saturated=True``).  ``_stalls`` runs the starts in
    chunks, each drawn and descended as one stack, and their outcomes are
    offered one by one in start order: the pairs, their order and
    ``saturated`` are those of a start-by-start loop.  A chunk's converged
    pairs are mined by ``_mine_chunk`` and go to ``_Admission.offer_chunk``,
    one block per pair.  Deterministic for a fixed seed.  It decides no
    rank, so it takes no tolerance: descents, mining and admission all read
    the map's ``_zero_bar``.
    """
    n, m = phi.dim_in, phi.dim_out
    budget = _budget(phi, starts)
    rng = np.random.default_rng(seed)
    admission = _Admission(phi)

    def descended(done, size):
        chunk = [("x", _random_unit(rng, n)) if start % 2 == 0 else ("h", _random_unit(rng, m))
                 for start in range(done, done + size)]
        outcomes = _alternating_descent(phi, chunk)
        found = [o for o in outcomes if o.succeeded]
        flags = iter(admission.offer_chunk(_mine_chunk(phi, found)) if found else ())
        return [o.succeeded and next(flags) for o in outcomes]

    return admission.zero_set(saturated=_stalls(descended, _STALL_BUDGET, budget))


# The exact routes draw their points and lines from this fixed seed, never from ``--seed``.
_POINT_SEED = 271828182845


def analytic_zeros_conjugation(v, transposed: bool = False, tol: ToleranceConfig = DEFAULT_TOL) -> ZeroSet:
    """Exact zero pairs of the conjugation map a -> V^H a V (``transposed``: V^H a^T V).

    It is the Kraus route on the one operator K = V^H: with y = conj(x)
    (transposed: y = x), (x, h) is a zero iff h^H V^H y = 0, so every x has
    the partners of one row, exactly, and on the kernel of V^H (when
    rank V < n) every h is a partner.  No start budget applies.
    """
    return _kraus_zeros(from_conjugation(v, transposed), as_matrix(v).conj().T[None], transposed, tol)


# A pencil line whose B has sigma_min at or below this times sigma_max is redrawn: the
# eigenvalues of -B^-1 A would be too inexact for the kernel cut at their points.
_PENCIL_GATE = 1e-4


def _kraus_zeros(phi: MapOperator, stack: np.ndarray, transposed: bool, tol: ToleranceConfig) -> ZeroSet | None:
    """Exact zero pairs of Phi(a) = sum_s K_s a K_s^H (``transposed``: K_s a^T K_s^H) from the (k, m, n)
    Kraus stack, or None when no exact route applies on either side (see the module docstring): a map
    that the primal side leaves open runs the dual side, on the stack K_s^T."""
    zs = _kraus_route(phi, stack, transposed, tol)
    if zs is None:
        zs = _kraus_route(phi, stack.transpose(0, 2, 1), transposed, tol, dual=True)
    return zs


def _kraus_route(phi: MapOperator, stack: np.ndarray, transposed: bool, tol: ToleranceConfig,
                 dual: bool = False) -> ZeroSet | None:
    """One side of ``_kraus_zeros``: the zeros of the map with the (k, m, n) Kraus ``stack``, offered to
    Phi's admission; on the ``dual`` side (K_s^T, whose zeros (x', h') are Phi's (h', x'), or
    (conj(h'), conj(x')) when ``transposed``), each as Phi's pair with its residual under Phi.

    With y = conj(x) (``transposed``: y = x), (x, h) is a zero iff h^H M(y) = 0 for the m x k matrix
    M(y) = [K_1 y ... K_k y]; the route is picked by the rank r of M at a generic point.  Each search
    runs under ``_stalls``: a chunk of points is row-normalized and cut once, a chunk of lines is drawn
    line by line, and each pair is offered as it is, against the map's ``_zero_bar``.  The set is
    ``saturated`` when each of its searches stalled or reached its ceiling, where at n = 2 one drawn
    pencil line is all of P^1.  The window, the cap and the ceiling are Phi's on either side.
    """
    k, m, n = stack.shape
    admission = _Admission(phi)
    rng = np.random.default_rng(_POINT_SEED)
    window = max(4, phi.dim_in)
    strong_dim = phi.dim_in * phi.dim_in * phi.dim_out  # n^2 m of Phi
    cap = strong_dim + window  # each productive point or line grows a span of dimension <= n^2 m
    ref = np.linalg.norm(stack[-1])
    # the proven ceiling of the strong span: the kernel ceiling n^2 m - rank Phi(1) and n(nm - k)
    ceiling = min(strong_dim - len(_unit_image(phi, tol)[0]), strong_dim - phi.dim_in * k)

    def full(bound=ceiling):
        return len(admission.pairs) >= bound

    def offered(ys, bound):
        """Whether each point y of a batch admits a pair, until the admitted count reaches ``bound``.
        The batch is row-normalized once, the left kernels of its M(y) are cut by one ``_row_kernels`` solve
        and the images of its points x (y, or conj(y)) are one stack; x is offered with every orthonormal
        kernel column h as they are, each with its residual under the image of x.  On the dual side each
        kernel column (conjugated when ``transposed``) is Phi's x and conj(y) Phi's h, so the images of
        Phi's xs are taken instead."""
        ys = ys / np.linalg.norm(ys, axis=1, keepdims=True)
        kernels = _row_kernels(np.einsum("smn,pn->psm", stack, ys).conj(), ref, tol)
        if dual:
            xss = (cols.T.conj() if transposed else cols.T for cols in kernels)
            return [admission.offer_all((x, h, _norm(image @ h)) for x, image in zip(xs, _rank_one_images(phi, xs)))
                    for h, xs in zip(ys.conj(), xss) if not full(bound)]
        xs = ys if transposed else ys.conj()
        return [admission.offer_all((x, h, _norm(image @ h)) for h in hs.T)
                for x, image, hs in zip(xs, _rank_one_images(phi, xs), kernels) if not full(bound)]

    def stalled(ys, bound):  # whether a search over points drawn up front stalls or reaches ``bound``
        return _stalls(lambda done, size: offered(ys[done : done + size], bound), window, len(ys),
                       lambda: full(bound))

    def image_of(y):  # M(y)
        return np.einsum("smn,n->ms", stack, y)

    r = numerical_rank(image_of(_random_unit(rng, n)), tol)
    if r == m and n > 2 and k > m:
        return None
    # The common kernel W of the K_s: there M(y) = 0, so every h is a partner (a free block of
    # _row_kernels).  Random points and lines miss it.  Its strong span is W-bar (x) W (x) C^m, of
    # dimension d^2 m.  The dual side runs only where the primal r = m: no h has K_s^H h = 0, so W = 0.
    common = np.empty((n, 0)) if dual else kernel_basis(stack.reshape(k * m, n), tol)
    d = common.shape[1]
    saturated = d == 0 or stalled(_gaussian_rows(rng, d * d * m + window, d) @ common.T, d * d * m)
    if r < m or n == 1:  # every x has partners (n = 1 has one x): row kernels at random points
        return admission.zero_set(saturated=stalled(_gaussian_rows(rng, cap, n), ceiling) and saturated)
    # det(M(y) R) = 0 on a line y = a + t b: the roots t are the eigenvalues of -B^-1 A
    right = np.eye(k, m) if k == m else _ginibre(rng, k, m)

    def lines(_done, size):
        """Draw ``size`` lines, none at the ceiling; one flag per line that passes ``_PENCIL_GATE``:
        whether it admitted a pair."""
        flags = []
        for _ in range(size):
            if full():
                break
            a, b = _random_unit(rng, n), _random_unit(rng, n)
            pa, pb = image_of(a) @ right, image_of(b) @ right
            s = np.linalg.svd(pb, compute_uv=False)
            if s[-1] > _PENCIL_GATE * s[0]:
                ys = a + np.linalg.eigvals(-np.linalg.solve(pb, pa))[:, None] * b
                flags.append(any(offered(np.vstack([ys, b]) if n == 2 else ys, ceiling)))
        return flags

    if n > 2:
        return admission.zero_set(saturated=_stalls(lines, window, cap, full) and saturated)
    # n = 2: the line is all of P^1, and t = infinity is b: one drawn line finds every zero off W;
    # a ceiling reached before the line is drawn is as complete
    drawn = any(full() or lines(0, 1) for _ in range(cap))
    return admission.zero_set(saturated=drawn and saturated)


def weak_span_dim(zero_set: ZeroSet, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of span{x (x) h} over the zero set."""
    return span_dimension(zero_set.weak_vectors.T, tol)


def strong_span_dim(zero_set: ZeroSet, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Dimension of span{conj(x) (x) x (x) h} over the zero set."""
    return span_dimension(zero_set.strong_vectors.T, tol)
