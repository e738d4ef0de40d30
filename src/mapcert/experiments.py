"""Dimension-count experiments, random instance generators, and the
brute-force oracle.

The central experiment measures the strong span dimension of transposed
conjugation maps a -> V^H a^T V over a grid of shapes and ranks and compares
it against two closed-form candidates that disagree whenever n != m:

* input rule:  n^2 m - n for rank >= 2, and n^2 m - (2n - 1) for rank 1;
* output rule: m (n^2 - 1) for rank >= 2, and m n^2 - (2m - 1) for rank 1.

Three routes produce the measured value: the exact Kraus route on the one
operator K = V^H, the structure-blind harvest, and a brute-force oracle
that solves the zero condition exactly in h over a dense random grid of x.
The oracle is deliberately naive.  It shares ``linalg``'s free-row rule and
closed-form row kernels with the Kraus route and ``numerical_rank`` with
both.  It shares neither the Kraus stack, nor its points, nor admission, so
it still catches a bug in any of those.  Each of its stages runs as
whole-array steps (one draw per kind of point, one closed-form kernel block
for its generic rows, one broadcast per kind of row), which change no math:
the same points, kernel spans and columns as a loop over points.  The
stages are nested, and each makes its one rank decision on a running
triangular factor of every column drawn so far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckError, DimensionMismatch, OracleUnstable, RankInfeasible, ZeroOperator
from .linalg import DEFAULT_TOL, ToleranceConfig, _rank_from_singular_values, as_matrix, image_projector, numerical_rank
from .linalg import _free_rows, _householder_kernels
from .maps import MapOperator, _gaussian_rows, _ginibre, apply, choi_spectral_scale, cp_map_from_kraus, from_conjugation
from .zeros import _kraus_zeros, harvest_zeros, strong_span_dim

__all__ = [
    "SweepReport",
    "ImageInclusionReport",
    "candidate_dims",
    "random_rank_operator",
    "random_kraus_operators",
    "random_cp_map",
    "run_dimension_sweep",
    "sweep_cells",
    "check_image_inclusion",
    "brute_force_strong_dim_oracle",
]

INPUT_RULE = "input_rule"
OUTPUT_RULE = "output_rule"
BOTH_RULES = "both"
NEITHER_RULE = "neither"


@dataclass(frozen=True)
class SweepReport:
    """Measured strong dimension of one (n, m, rank) cell and the verdict.

    ``agrees_with`` is one of input_rule / output_rule / both / neither by
    exact integer comparison.  ``strong_target`` is the kernel ceiling
    n^2 m - rank Phi(1); the map has the strong spanning property exactly
    when the measured value reaches it.
    """

    n: int
    m: int
    rank_v: int
    measured_strong_dim: int
    formula_input_rule: int
    formula_output_rule: int
    strong_target: int
    agrees_with: str
    seed: int


@dataclass(frozen=True)
class ImageInclusionReport:
    """Worst-case residuals over sampled image-inclusion trials."""

    trials: int
    max_inclusion_residual: float
    max_image_gap: float
    scale: float
    passed: bool


def candidate_dims(n: int, m: int, rank_v: int) -> tuple[int, int]:
    """(input rule, output rule) closed-form candidates for the strong dim."""
    if rank_v == 1:
        return n * n * m - (2 * n - 1), m * n * n - (2 * m - 1)
    return n * n * m - n, m * (n * n - 1)


def random_rank_operator(
    n: int,
    m: int,
    rank_v: int,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Random n x m operator of exact rank ``rank_v``, seeded.

    Built as a product of Ginibre factors, which has the requested rank
    almost surely; the rank is verified and the draw repeated on failure.
    """
    if not 1 <= rank_v <= min(n, m):
        raise RankInfeasible(f"rank {rank_v} impossible for a {n}x{m} operator")
    rng = np.random.default_rng(seed)
    for _ in range(16):
        v = _ginibre(rng, n, rank_v) @ _ginibre(rng, rank_v, m)
        if numerical_rank(v, tol) == rank_v:
            return v
    raise RankInfeasible(f"could not draw a rank-{rank_v} {n}x{m} operator")


def random_kraus_operators(n: int, m: int, count: int, seed: int = 0) -> list[np.ndarray]:
    """``count`` random m x n Ginibre operators, seeded."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    return [_ginibre(rng, m, n) for _ in range(count)]


def random_cp_map(n: int, m: int, kraus_count: int = 3, seed: int = 0) -> MapOperator:
    """Seeded random completely positive map with the given operator count."""
    return cp_map_from_kraus(random_kraus_operators(n, m, kraus_count, seed=seed))


def run_dimension_sweep(
    n: int,
    m: int,
    rank_v: int,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> SweepReport:
    """Measure the strong dimension of one random cell and classify it.

    The exact Kraus route (on K = V^H) is the reported measurement; the
    harvest must reproduce it exactly or the cell fails loudly, since a
    silent route disagreement would poison every downstream conclusion.
    The closed-form candidates compare maps M_n -> M_m with n, m >= 2; a
    smaller n or m (after the rank check) is a ``DimensionMismatch``.
    """
    v = random_rank_operator(n, m, rank_v, seed=seed, tol=tol)
    if min(n, m) < 2:
        raise DimensionMismatch(f"the sweep compares maps M_n -> M_m with n, m >= 2, got n={n} m={m}")
    phi = from_conjugation(v, transposed=True)
    analytic = strong_span_dim(_kraus_zeros(phi, v.conj().T[None], True, tol), tol)
    harvested = strong_span_dim(harvest_zeros(phi, seed=seed), tol)
    if analytic != harvested:
        raise CrossCheckError(
            f"cell n={n} m={m} rank={rank_v} seed={seed}: "
            f"analytic strong dim {analytic} != harvested {harvested}"
        )
    input_rule, output_rule = candidate_dims(n, m, rank_v)
    if analytic == input_rule and analytic == output_rule:
        agrees = BOTH_RULES
    elif analytic == input_rule:
        agrees = INPUT_RULE
    elif analytic == output_rule:
        agrees = OUTPUT_RULE
    else:
        agrees = NEITHER_RULE
    return SweepReport(
        n=n,
        m=m,
        rank_v=rank_v,
        measured_strong_dim=analytic,
        formula_input_rule=input_rule,
        formula_output_rule=output_rule,
        strong_target=n * n * m - rank_v,
        agrees_with=agrees,
        seed=seed,
    )


# The default sweep ranges: small, fast, and formula-separating.
DEFAULT_N_RANGE = (2, 3, 4)
DEFAULT_M_RANGE = (2, 3, 4, 5)


def sweep_cells(n_range=DEFAULT_N_RANGE, m_range=DEFAULT_M_RANGE) -> list[tuple[int, int, int]]:
    """The (n, m, rank) cells over the ranges, every feasible rank, in sweep order."""
    return [(n, m, r) for n in n_range for m in m_range for r in range(1, min(n, m) + 1)]


def _random_psd(rng, dim) -> np.ndarray:
    g = _ginibre(rng, dim, dim)
    p = g @ g.conj().T
    return p / np.trace(p).real


def check_image_inclusion(
    phi: MapOperator,
    trials: int = 20,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ImageInclusionReport:
    """Sample the inclusion Im Phi(b) <= Im Phi(a) for strictly positive a.

    Each trial draws a PSD b (trace one) and a strictly positive a and
    measures the part of Phi(b) sticking out of the image of Phi(a); a second
    strictly positive draw checks that the two image projectors coincide.
    Residuals are reported against the spectral scale of the map.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    n = phi.dim_in
    rng = np.random.default_rng(seed)
    scale = choi_spectral_scale(phi)
    eye = np.eye(n, dtype=complex)
    worst_inclusion = 0.0
    worst_gap = 0.0
    for _ in range(trials):
        b = _random_psd(rng, n)
        base = _random_psd(rng, n)
        a = base + 0.5 * eye / n
        p = image_projector(apply(phi, a), tol)
        image_b = apply(phi, b)
        out = image_b - p @ image_b
        worst_inclusion = max(worst_inclusion, float(np.linalg.norm(out)))
        a2 = _random_psd(rng, n) + 0.5 * eye / n
        p2 = image_projector(apply(phi, a2), tol)
        worst_gap = max(worst_gap, float(np.linalg.norm(p - p2)))
    passed = (
        worst_inclusion <= phi._zero_bar
        and worst_gap <= tol.residual_rel_tol * max(1.0, scale)
    )
    return ImageInclusionReport(
        trials=trials,
        max_inclusion_residual=worst_inclusion,
        max_image_gap=worst_gap,
        scale=scale,
        passed=passed,
    )


def _unit_rows(rng, count, dim) -> np.ndarray:
    g = _gaussian_rows(rng, count, dim)
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _oracle_generators(v, transposed, sigma_top, stratum, grid, tol, seed, stage) -> np.ndarray:
    """Strong vectors of every sampled zero pair, as matrix columns: those of the points with a
    generic row first, then those of the free rows, each in the order of the points.

    Each step runs on the whole stage at once: one draw per kind of point, one closed-form
    kernel per generic row, one broadcast per kind of row.  Batching changes no math: the
    points, their kernels and the columns are those of a loop over points up to rounding, and
    the stage still ends in one rank decision.
    """
    n, m = v.shape
    rng = np.random.default_rng([seed, stage])
    xs = _unit_rows(rng, grid, n)
    if stratum is not None:  # rank V < n
        # Generic x never hits the stratum where the zero condition is
        # row-free; sample it explicitly or its contribution is lost.
        d = stratum.shape[1]
        xs = np.vstack([xs, _unit_rows(rng, (d * d + d + 4) * max(1, stage + 1), d) @ stratum.T])
    # The h solutions at x are the kernel of its 1 x m row: m - 1 columns, or all of C^m where it is free.
    rows = (xs.conj() if transposed else xs) @ v
    free, top = _free_rows(rows, sigma_top, tol)

    def strong(x, hs):  # conj(x) (x) x (x) hs[:, :, j] for every point and j, as an (n, n, m) block per column
        block = (x.conj()[:, :, None] * x[:, None, :])[:, :, :, None, None] * hs[:, None, None]
        return block.reshape(len(x), n * n * m, hs.shape[-1]).transpose(1, 0, 2).reshape(n * n * m, -1)

    return np.hstack([strong(xs[~free], _householder_kernels(rows[~free], top[~free])), strong(xs[free], np.eye(m)[None])])


# x points the oracle draws at its first stage; each further stage draws as many
# new points as all earlier stages together, so the totals double.
_ORACLE_GRID = 200


def brute_force_strong_dim_oracle(
    v,
    transposed: bool = True,
    tol: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> int:
    """Strong span dimension by dense sampling, the independent ground truth.

    For fixed x the zero condition of a conjugation map is a single linear
    constraint on h, solvable exactly; sampling x densely and accumulating
    every resulting strong vector reduces the question to one rank
    computation.  Each stage stacks its new columns, as rows, under the
    running triangular factor R of all earlier ones (one QR, so R stays at
    most n^2 m square) and takes the numerical rank of R, whose singular
    values are those of every column so far; QR is backward stable, so the
    cut is as sound as an SVD of the columns.  The value is accepted only
    when two consecutive doublings of the points agree, that is, when a
    doubling added no direction; otherwise ``OracleUnstable`` names each
    stage's point total and dimension.
    """
    v = as_matrix(v)
    if not np.any(v):
        raise ZeroOperator("the zero operator has no zero structure worth measuring")
    n, m = v.shape
    u, s, _ = np.linalg.svd(v)  # sigma_max, rank V and the stratum: one SVD per call
    rank = _rank_from_singular_values(s, tol)
    # the stratum is ker V^H = U[:, rank:] (transposed), else ker V^T, its conjugate
    stratum = None if rank == n else (u[:, rank:] if transposed else u[:, rank:].conj())
    r = np.zeros((0, n * n * m), dtype=complex)
    drawn, stages = 0, []  # (points drawn so far, dimension) per stage
    for stage in range(5):
        fresh = max(drawn, _ORACLE_GRID)
        generators = _oracle_generators(v, transposed, float(s[0]), stratum, fresh, tol, seed, stage)
        r = np.linalg.qr(np.vstack([r, generators.T]), mode="r")
        drawn += fresh
        stages.append((drawn, numerical_rank(r, tol)))
        if stage and stages[-1][1] == stages[-2][1]:
            return stages[-1][1]
    history = ", ".join(f"{points} -> {dim}" for points, dim in stages)
    raise OracleUnstable(f"oracle dimension kept changing at every stage (points drawn -> dimension: {history})")
