"""Zero enumeration: frozen span dimensions and search invariants.

The integer expectations here were computed by the brute-force grid oracle
and cross-checked against the analytic enumeration before being frozen.
"""

import numpy as np
import pytest

import mapcert.maps
import mapcert.zeros
from mapcert.errors import ZeroOperator
from mapcert.experiments import random_rank_operator, sweep_cells
from mapcert.linalg import DEFAULT_TOL
from mapcert.maps import (
    _alternating_descent,
    _normalize,
    MapOperator,
    apply,
    choi_spectral_scale,
    from_conjugation,
    identity_map,
    trace_map,
    transpose_map,
)
from mapcert.zeros import (
    _STALL_BUDGET,
    _strong_vector,
    _weak_vector,
    analytic_zeros_conjugation,
    harvest_zeros,
    strong_span_dim,
    weak_span_dim,
)


def rank_operator(n, m, rank, seed):
    rng = np.random.default_rng(seed)
    g = lambda a, b: rng.standard_normal((a, b)) + 1j * rng.standard_normal((a, b))
    return g(n, rank) @ g(rank, m)


# (V, transposed, strong dim, weak dim), all oracle-verified
FROZEN_CASES = [
    pytest.param(np.eye(2), True, 6, 4, id="transpose-m2"),
    pytest.param(np.eye(2), False, 6, 3, id="identity-m2"),
    pytest.param(np.eye(3), False, 24, 8, id="identity-m3"),
    pytest.param(rank_operator(2, 2, 1, 7), True, 5, 3, id="rank1-2x2"),
    pytest.param(rank_operator(2, 3, 1, 9), True, 9, 5, id="rank1-2x3"),
    pytest.param(rank_operator(2, 3, 2, 8), True, 10, 6, id="rank2-2x3"),
    pytest.param(rank_operator(3, 3, 2, 10), True, 24, 9, id="rank2-3x3"),
]


@pytest.mark.parametrize("v,transposed,strong,weak", FROZEN_CASES)
def test_analytic_dimensions(v, transposed, strong, weak):
    zs = analytic_zeros_conjugation(v, transposed=transposed)
    assert strong_span_dim(zs) == strong
    assert weak_span_dim(zs) == weak
    assert zs.saturated


@pytest.mark.parametrize("v,transposed,strong,weak", FROZEN_CASES)
def test_harvest_matches_analytic(v, transposed, strong, weak):
    phi = from_conjugation(v, transposed=transposed)
    zs = harvest_zeros(phi, seed=0)
    assert strong_span_dim(zs) == strong
    assert weak_span_dim(zs) == weak
    assert zs.saturated


@pytest.mark.parametrize("seed", range(5))
def test_kept_pairs_match_the_final_span_svd(seed):
    # Admission is decided by the Gram-Schmidt residual, the reported
    # dimension by the SVD at rank_rel_tol; on every default sweep cell both
    # routes keep exactly as many pairs as that SVD counts.
    mismatches = []
    for n, m, r in sweep_cells():
        v = random_rank_operator(n, m, r, seed=seed)
        routes = {
            "analytic": analytic_zeros_conjugation(v, transposed=True),
            "harvest": harvest_zeros(from_conjugation(v, transposed=True), seed=seed),
        }
        for route, zs in routes.items():
            if len(zs.pairs) != strong_span_dim(zs):
                mismatches.append((n, m, r, route, len(zs.pairs), strong_span_dim(zs)))
    assert mismatches == []


def test_vector_builders_equal_kron_bitwise():
    rng = np.random.default_rng(0)
    for n in range(1, 7):
        for m in range(1, 9):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            h = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            assert np.array_equal(_weak_vector(x, h), np.kron(x, h))
            assert np.array_equal(_strong_vector(x, h), np.kron(np.kron(x.conj(), x), h))


@pytest.mark.parametrize("cell", [(2, 3, 2), (3, 3, 1), (3, 4, 3), (4, 5, 2)])
def test_zero_set_vectors_equal_kron_rebuild_bitwise(cell):
    # The ZeroSet keeps the strong vectors built for admission; they must be
    # exactly what a Kronecker rebuild from the kept pairs gives.
    n, m, r = cell
    v = random_rank_operator(n, m, r, seed=1)
    for zs in (
        analytic_zeros_conjugation(v, transposed=True),
        harvest_zeros(from_conjugation(v, transposed=True), seed=1),
    ):
        assert zs.pairs
        strong = np.array([np.kron(np.kron(p.x.conj(), p.x), p.h) for p in zs.pairs])
        weak = np.array([np.kron(p.x, p.h) for p in zs.pairs])
        assert np.array_equal(zs.strong_vectors, strong)
        assert np.array_equal(zs.weak_vectors, weak)


def test_zero_pairs_are_verified_zeros():
    phi = from_conjugation(rank_operator(2, 3, 2, 8), transposed=True)
    zs = harvest_zeros(phi, seed=1)
    bound = DEFAULT_TOL.residual_rel_tol * choi_spectral_scale(phi)
    for pair in zs.pairs:
        assert np.linalg.norm(pair.x) == pytest.approx(1.0)
        assert np.linalg.norm(pair.h) == pytest.approx(1.0)
        residual = np.linalg.norm(apply(phi, np.outer(pair.x.conj(), pair.x)) @ pair.h)
        assert residual <= bound
        assert pair.residual <= bound
    assert len(zs.weak_vectors) == len(zs.pairs) == len(zs.strong_vectors)


def test_trace_map_has_no_zeros():
    zs = harvest_zeros(trace_map(2), seed=0)
    assert zs.pairs == []
    assert strong_span_dim(zs) == 0
    assert weak_span_dim(zs) == 0
    assert zs.saturated  # stalls quickly, not a budget exhaustion


def test_harvest_deterministic():
    phi = transpose_map(2)
    a = harvest_zeros(phi, seed=3)
    b = harvest_zeros(phi, seed=3)
    assert len(a.pairs) == len(b.pairs)
    for pa, pb in zip(a.pairs, b.pairs):
        assert np.allclose(pa.x, pb.x)
        assert np.allclose(pa.h, pb.h)


def test_harvest_seed_independence_of_dimensions():
    phi = from_conjugation(rank_operator(2, 3, 1, 9), transposed=True)
    dims = {
        (strong_span_dim(zs), weak_span_dim(zs))
        for zs in (harvest_zeros(phi, seed=s) for s in range(3))
    }
    assert dims == {(9, 5)}


def test_harvest_scale_invariance():
    phi = transpose_map(2)
    scaled = MapOperator(2, 2, 3.0 * phi.choi)
    a = harvest_zeros(phi, seed=2)
    b = harvest_zeros(scaled, seed=2)
    assert strong_span_dim(a) == strong_span_dim(b)
    assert weak_span_dim(a) == weak_span_dim(b)


def test_harvest_monotone_in_budget():
    phi = from_conjugation(rank_operator(3, 3, 3, 11), transposed=True)
    small = harvest_zeros(phi, seed=0, starts=12)
    large = harvest_zeros(phi, seed=0, starts=400)
    assert strong_span_dim(small) <= strong_span_dim(large)
    assert weak_span_dim(small) <= weak_span_dim(large)


def test_harvest_budget_exhaustion_reports_unsaturated():
    phi = identity_map(3)
    zs = harvest_zeros(phi, seed=0, starts=2)
    assert not zs.saturated


def test_analytic_svd_count_does_not_grow_with_the_grid(monkeypatch):
    v = rank_operator(3, 4, 2, 5)
    counts = {"svd": 0, "points": 0}
    svd, image = np.linalg.svd, mapcert.zeros._image

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_image(*args):
        counts["points"] += 1
        return image(*args)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(mapcert.zeros, "_image", counted_image)
    analytic_zeros_conjugation(v, transposed=True)
    # V's singular frame, then one row-kernel solve for the base grid and
    # one for the filler points, however many points each holds
    assert counts["svd"] == 3
    # while 12 base points, 2 on the degenerate stratum and at least a
    # stall window (4) of filler points are evaluated
    assert counts["points"] >= 12 + 2 + 4


@pytest.mark.parametrize("starts,descents", [(None, _STALL_BUDGET), (5, 5)])
def test_harvest_draws_no_start_after_the_stall(monkeypatch, starts, descents):
    calls = []
    descent = mapcert.zeros._alternating_descent

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return descent(*args, **kwargs)

    monkeypatch.setattr(mapcert.zeros, "_alternating_descent", counted)
    zs = harvest_zeros(trace_map(2, 3), seed=0, starts=starts)
    assert len(calls) == descents
    # starts alternate between the x side and the h side
    assert [list(kwargs) for kwargs in calls] == [["x0"], ["h0"]] * (descents // 2) + [["x0"]] * (descents % 2)
    assert zs.saturated == (starts is None)


def test_harvest_rejects_empty_budget():
    with pytest.raises(ValueError):
        harvest_zeros(transpose_map(2), starts=0)


def test_local_search_finds_zero_of_transpose():
    out = _alternating_descent(transpose_map(2), DEFAULT_TOL, x0=_normalize(np.array([1.0, 0.5j])))
    assert out.succeeded and out.converged
    assert out.residual <= 1e-9 * choi_spectral_scale(transpose_map(2))
    assert abs(np.vdot(out.x, out.h)) < 1e-9  # the known zero condition


def test_local_search_objective_never_increases(monkeypatch):
    # the objective after every half step: the bottom eigenvalue each step returns
    history = []
    h_step, x_step = mapcert.maps._h_step, mapcert.maps._x_step

    def recorded_h_step(phi, x):
        image, (w, u) = h_step(phi, x)
        history.append(float(w[0]))
        return image, (w, u)

    def recorded_x_step(phi, h):
        w, u = x_step(phi, h)
        history.append(float(w[0]))
        return w, u

    monkeypatch.setattr(mapcert.maps, "_h_step", recorded_h_step)
    monkeypatch.setattr(mapcert.maps, "_x_step", recorded_x_step)
    phi = from_conjugation(rank_operator(3, 4, 3, 12), transposed=True)
    _alternating_descent(phi, DEFAULT_TOL, x0=_normalize(np.ones(3)))
    scale = choi_spectral_scale(phi)
    assert len(history) >= 2
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-12 * scale)


def test_local_search_reports_failure_without_zeros():
    out = _alternating_descent(trace_map(2), DEFAULT_TOL, x0=_normalize(np.array([1.0, 1.0])))
    assert not out.succeeded
    assert out.residual > 0.1


def test_local_search_rejects_bad_starts():
    with pytest.raises(ValueError):
        _alternating_descent(transpose_map(2), DEFAULT_TOL, x0=_normalize(np.zeros(2)))


def test_analytic_rejects_zero_operator():
    with pytest.raises(ZeroOperator):
        analytic_zeros_conjugation(np.zeros((2, 2)))


def test_analytic_untransposed_full_rank():
    v = rank_operator(2, 3, 2, 13)
    zs = analytic_zeros_conjugation(v, transposed=False)
    zh = harvest_zeros(from_conjugation(v, transposed=False), seed=0)
    assert strong_span_dim(zs) == strong_span_dim(zh) == 10
