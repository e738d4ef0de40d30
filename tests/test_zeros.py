"""Zero enumeration: frozen span dimensions and search invariants.

The integer expectations here were computed by the brute-force grid oracle
and cross-checked against the analytic enumeration before being frozen.
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapcert.maps
import mapcert.zeros
from mapcert.certify import CERTIFIED, INCONCLUSIVE, certify_exposed, certify_optimal
from mapcert.documents import matrix_to_payload, parse_map_file, to_map_operator
from mapcert.errors import ZeroOperator
from mapcert.experiments import random_cp_map, random_kraus_operators, random_rank_operator, sweep_cells
from mapcert.linalg import DEFAULT_TOL, ToleranceConfig
from mapcert.maps import (
    _alternating_descent,
    _ginibre,
    _is_psd,
    _normalize,
    _random_unit,
    MapOperator,
    apply,
    choi_spectral_scale,
    cp_map_from_kraus,
    from_conjugation,
    identity_map,
    is_positive_heuristic,
    trace_map,
    transpose_map,
)
from mapcert.zeros import (
    _STALL_BUDGET,
    _Admission,
    _stalls,
    _strong_vector,
    _weak_vector,
    ZeroPair,
    ZeroSet,
    analytic_zeros_conjugation,
    find_zeros,
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


def found_zero_sets(n, m, r):
    v = random_rank_operator(n, m, r, seed=1)
    return [analytic_zeros_conjugation(v, transposed=True), harvest_zeros(from_conjugation(v, transposed=True), seed=1)]


def hand_built_zero_sets():
    # the empty set, and the transpose map's set padded with a repeated pair
    zs = harvest_zeros(transpose_map(2), seed=0)
    return [ZeroSet(2, 3, [], True), ZeroSet(2, 2, zs.pairs + zs.pairs[:1], zs.saturated)]


@pytest.mark.parametrize("cell", [(2, 3, 2), (3, 3, 1), (3, 4, 3), (4, 5, 2), pytest.param(None, id="hand-built")])
def test_zero_set_vectors_equal_kron_rebuild_bitwise(cell):
    # The ZeroSet builds its rows from its pairs; they must be exactly what a
    # Kronecker rebuild from those pairs gives, on found and hand-built sets.
    for zs in found_zero_sets(*cell) if cell else hand_built_zero_sets():
        assert zs.pairs or cell is None
        k, nm = len(zs.pairs), zs.dim_in * zs.dim_out
        strong = np.array([np.kron(np.kron(p.x.conj(), p.x), p.h) for p in zs.pairs], dtype=complex)
        weak = np.array([np.kron(p.x, p.h) for p in zs.pairs], dtype=complex)
        assert np.array_equal(zs.strong_vectors, strong.reshape(k, zs.dim_in * nm))
        assert np.array_equal(zs.weak_vectors, weak.reshape(k, nm))
        assert zs.strong_vectors.dtype == zs.weak_vectors.dtype == complex


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 8), k=st.integers(0, 9), seed=st.integers(0, 2**32 - 1),
       layouts=st.tuples(*[st.sampled_from(["rows", "columns", "eigenvector-columns"])] * 2))
def test_stacked_vector_builders_equal_the_per_pair_builds_bitwise(n, m, k, seed, layouts):
    # The ZeroSet's rows come from one broadcast over its stacked pairs, while admission builds each
    # pair's vector alone, often from a strided view: a kernel column of hs.T or an eigenvector column
    # u[:, i].  Every layout must give the bytes of the per-pair build, row for row.
    rng = np.random.default_rng(seed)

    def stack(dim, layout):  # k vectors of length dim as the rows of a (k, dim) array or view
        if layout == "rows":
            return _ginibre(rng, k, dim)
        if layout == "columns":  # the columns of a (dim, k) matrix, as the kernel columns hs.T
            return _ginibre(rng, dim, k).T
        return _ginibre(rng, dim, max(dim, k))[:, :k].T  # columns u[:, i] of a square-or-wider matrix

    xs, hs = stack(n, layouts[0]), stack(m, layouts[1])
    weak = [_weak_vector(x, h).tobytes() for x, h in zip(xs, hs)]
    strong = [_strong_vector(x, h).tobytes() for x, h in zip(xs, hs)]
    zs = ZeroSet(n, m, [ZeroPair(x=x, h=h, residual=0.0) for x, h in zip(xs, hs)], True)
    for rows_weak, rows_strong in [(_weak_vector(xs, hs), _strong_vector(xs, hs)), (zs.weak_vectors, zs.strong_vectors)]:
        assert rows_weak.shape == (k, n * m) and rows_strong.shape == (k, n * n * m)
        assert [row.tobytes() for row in rows_weak] == weak
        assert [row.tobytes() for row in rows_strong] == strong


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
    counts = {"svd": 0, "points": 0}
    # ("draw", count) per search, ("cut", rows) per row-kernel solve, ("points", rows) per image call and
    # ("offer", admitted, count) per point offered, with the admitted count after it
    events = []
    svd, images, row_kernels = np.linalg.svd, mapcert.zeros._rank_one_images, mapcert.zeros._row_kernels
    draw, offer_all = mapcert.zeros._gaussian_rows, _Admission.offer_all

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_images(phi, xs):
        counts["points"] += len(xs)
        events.append(("points", len(xs)))
        return images(phi, xs)

    def counted_row_kernels(rows, *args):
        events.append(("cut", rows.shape[0]))
        return row_kernels(rows, *args)

    def counted_draw(rng, count, dim):
        events.append(("draw", count))
        return draw(rng, count, dim)

    def counted_offer_all(self, candidates):
        admitted = offer_all(self, candidates)
        events.append(("offer", admitted, len(self.pairs)))
        return admitted

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(mapcert.zeros, "_rank_one_images", counted_images)
    monkeypatch.setattr(mapcert.zeros, "_row_kernels", counted_row_kernels)
    monkeypatch.setattr(mapcert.zeros, "_gaussian_rows", counted_draw)
    monkeypatch.setattr(_Admission, "offer_all", counted_offer_all)
    for n, m in [(3, 4), (4, 5)]:
        counts.update(svd=0, points=0)
        events.clear()
        zs = analytic_zeros_conjugation(rank_operator(n, m, 2, 5), transposed=True)
        window, d = max(4, n), n - 2
        # two searches, the common kernel of V^H (rank V = 2 < n, so d = n - 2), then the generic
        # points, with the ceilings d^2 m and min(n^2 m - rank Phi(1), n(nm - 1)) = n^2 m - n (rank
        # Phi(1) = rank V = 2 <= n).  Each draws all its points at once and cuts them
        # min(window - stall, drawn - done) at a time, where stall counts the points since the last
        # one that admitted a pair, and evaluates each cut with one call.  Every point cut is offered
        # until the admitted count reaches the ceiling, and none after it; a search cuts no chunk
        # after its stall, its ceiling or its last point
        starts = [i for i, (kind, *_) in enumerate(events) if kind == "draw"]
        assert len(starts) == 2 and starts[0] == 0
        count = 0
        for search, ceiling in ((events[: starts[1]], d * d * m), (events[starts[1] :], n * n * m - n)):
            drawn, done, stall = search[0][1], 0, 0
            cuts = [i for i, (kind, *_) in enumerate(search) if kind == "cut"]
            for i, j in zip(cuts, cuts[1:] + [len(search)]):
                assert stall < window and count < ceiling and done < drawn
                size = search[i][1]
                assert size == min(window - stall, drawn - done)
                assert search[i + 1] == ("points", size)
                offers = search[i + 2 : j]
                assert all(count < ceiling for *_, count in offers[:-1])
                for _, flag, count in offers:
                    stall = 0 if flag else stall + 1
                assert len(offers) == size or (len(offers) < size and count == ceiling)
                done += size
            # each search stops at its ceiling here, not at its stall or its last point
            assert count == ceiling
        # the SVDs: the generic rank of M(y) = V^H y at one point and the common kernel of V^H; none
        # per cut or per point, since at k = 1 each point's kernel is one row's, cut in closed form
        assert counts["svd"] == 2 < counts["points"]
        assert zs.saturated and len(zs.pairs) == strong_span_dim(zs) == n * n * m - n
        # a point of the common kernel adds at most m strong directions and a generic one (m - 1
        # partners) at most m - 1, so each search offers at least that many points
        offered = [sum(kind == "offer" for kind, *_ in search) for search in (events[: starts[1]], events[starts[1] :])]
        assert offered[0] >= d * d and offered[1] >= (n * n * m - n - d * d * m) // (m - 1)


def stall_after(flags):
    """The stall of a unit-by-unit loop over ``flags`` (True, False, or None for a unit with no flag)."""
    stall = 0
    for flag in flags:
        if flag is not None:
            stall = 0 if flag else stall + 1
    return stall


def unit_by_unit(flags, window, cap, ceiling=None):
    """The stop rule one unit at a time: the units run, and whether the stall reached the window or the
    count of True flags reached ``ceiling`` (None: no ceiling, as on the harvest)."""
    ran = []

    def full():
        return ceiling is not None and flags[: len(ran)].count(True) >= ceiling

    while len(ran) < cap and stall_after(flags[: len(ran)]) < window and not full():
        ran.append(len(ran))
    return ran, stall_after(flags[: len(ran)]) >= window or full()


@settings(max_examples=300, deadline=None)
@given(
    flags=st.lists(st.sampled_from([True, False, None]), max_size=40),
    window=st.integers(1, 8),
    cap=st.integers(0, 40),
    ceiling=st.one_of(st.none(), st.integers(0, 20)),
)
def test_the_driver_runs_the_units_of_a_unit_by_unit_loop(flags, window, cap, ceiling):
    # units with no flag (a pencil line the gate redraws) count against the cap and leave the stall as it
    # is; a True flag is an admitted pair, and the count of them is read against the ceiling
    cap = min(cap, len(flags))
    ran = []

    def full():
        return ceiling is not None and flags[: len(ran)].count(True) >= ceiling

    def offer(done, size):
        assert done == len(ran)
        assert 1 <= size <= min(window - stall_after(flags[:done]), cap - done)
        produced = []
        for unit in range(done, done + size):  # as a cut chunk of points: none offered after the ceiling
            if full():
                break
            ran.append(unit)
            if flags[unit] is not None:
                produced.append(flags[unit])
        return produced

    saturated = _stalls(offer, window, cap, full) if ceiling is not None else _stalls(offer, window, cap)
    # the same units and the same result; none ran after the stall or after the ceiling
    assert (ran, saturated) == unit_by_unit(flags, window, cap, ceiling)
    for unit in ran:
        assert stall_after(flags[:unit]) < window
        assert ceiling is None or flags[:unit].count(True) < ceiling
    # the span is proven complete at the ceiling
    if full():
        assert saturated


@pytest.mark.parametrize("starts,descents", [(None, _STALL_BUDGET), (5, 5)])
def test_harvest_draws_no_start_after_the_stall(monkeypatch, starts, descents):
    calls = counted_descents(monkeypatch)
    zs = harvest_zeros(trace_map(2, 3), seed=0, starts=starts)
    sides = [side for call in calls for side in call]
    assert len(sides) == descents
    # starts alternate between the x side and the h side
    assert sides == ["x", "h"] * (descents // 2) + ["x"] * (descents % 2)
    # no start admits anything, so the window left at a call is what the calls before it did not take
    assert all(len(call) <= _STALL_BUDGET - sum(map(len, calls[:i])) for i, call in enumerate(calls))
    assert zs.saturated == (starts is None)


def generalized_choi_map(a):
    """Phi[a, b, c](X) = diag(a x11 + b x22 + c x33, c x11 + a x22 + b x33, b x11 + c x22 + a x33) - X on
    M_3, with a + b + c = 3, bc = (2 - a)^2 and b >= c."""
    s, p = 3 - a, (2 - a) ** 2
    b, c = (s + np.sqrt(s * s - 4 * p)) / 2, (s - np.sqrt(s * s - 4 * p)) / 2
    weights = np.array([[a, c, b], [b, a, c], [c, b, a]])  # weights[i, k]: the coefficient of x_ii in Phi(X)_kk
    omega = np.eye(3).ravel()
    return MapOperator(3, 3, np.diag(weights.ravel()) - np.outer(omega, omega))


@pytest.mark.parametrize("phi, sides", [
    (random_cp_map(3, 3, 4, seed=1), "xh"),
    (from_conjugation(random_rank_operator(3, 4, 2, seed=1), transposed=True), "h"),
], ids=["cp-3x3-k4", "conjugation-3x4-h-side"])
def test_a_stack_of_descents_equals_its_starts_one_at_a_time_bitwise(monkeypatch, phi, sides):
    rng = np.random.default_rng(1)
    dims = {"x": phi.dim_in, "h": phi.dim_out}
    starts = [(side, _random_unit(rng, dims[side])) for side in itertools.islice(itertools.cycle(sides), 60)]
    stacked = _alternating_descent(phi, starts)
    h_steps = []
    h_step = mapcert.maps._h_step
    monkeypatch.setattr(mapcert.maps, "_h_step", lambda *args: h_steps.append(None) or h_step(*args))
    capped = []
    for index, (start, outcome) in enumerate(zip(starts, stacked)):
        h_steps.clear()
        alone = _alternating_descent(phi, [start])[0]
        if len(h_steps) == DEFAULT_TOL.max_iters:
            capped.append(index)
        for name in ("x", "h"):
            assert getattr(outcome, name).tobytes() == getattr(alone, name).tobytes(), (index, name)
        assert (outcome.value, outcome.residual, outcome.succeeded) == (alone.value, alone.residual, alone.succeeded)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(outcome.spectrum, alone.spectrum))
        # every outcome carries the x step at its h, whichever test stopped it
        x_step = [a[0] for a in mapcert.maps._x_step(phi, outcome.h[None])]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(outcome.adjoint_spectrum, x_step)), index
    # at the iteration cap the pair's x is the state before the last x step
    if sides == "xh":
        assert capped == [6, 32, 45]


@pytest.mark.parametrize("phi", [generalized_choi_map(1.5), random_cp_map(3, 3, 4, seed=1)], ids=["choi-1.5", "cp-3x3-k4"])
def test_no_stacked_descent_takes_more_starts_than_the_window_has_left(monkeypatch, phi):
    # each stacked call takes exactly min(window - stall, budget - done) starts, where stall counts the
    # starts since the last one that admitted a pair: never a start that a start-by-start loop skips.
    # These maps admit pairs late in a window, so some calls take less than a whole one
    calls, admitted, mined = [], {}, []
    descent, mine, offer_chunk = mapcert.zeros._alternating_descent, mapcert.zeros._mine_chunk, _Admission.offer_chunk

    def recorded_descent(phi, starts):
        calls.append(descent(phi, starts))
        return calls[-1]

    def recorded_mine(phi, outcomes):
        assert all(outcome.succeeded for outcome in outcomes)
        mined.append(outcomes)
        return mine(phi, outcomes)

    def recorded_offer(admission, blocks):
        flags = offer_chunk(admission, blocks)
        admitted.update((id(outcome), flag) for outcome, flag in zip(mined[-1], flags, strict=True))
        return flags

    monkeypatch.setattr(mapcert.zeros, "_alternating_descent", recorded_descent)
    monkeypatch.setattr(mapcert.zeros, "_mine_chunk", recorded_mine)
    monkeypatch.setattr(_Admission, "offer_chunk", recorded_offer)
    zs = harvest_zeros(phi, seed=0)
    stall = done = 0
    for outcomes in calls:
        assert len(outcomes) == min(_STALL_BUDGET - stall, 50 * 3 * 3 - done)
        for outcome in outcomes:
            stall = 0 if admitted.get(id(outcome), False) else stall + 1
        done += len(outcomes)
    assert zs.saturated and stall == _STALL_BUDGET and zs.pairs
    assert min(map(len, calls)) < max(map(len, calls)) == _STALL_BUDGET


def pair_list(zs):
    return [(p.x.tobytes(), p.h.tobytes(), repr(p.residual)) for p in zs.pairs]


@pytest.mark.parametrize("phi, seed", [
    (generalized_choi_map(1.5), 0),
    (generalized_choi_map(1.5), 1),
    (from_conjugation(random_rank_operator(3, 4, 2, seed=0), transposed=True), 0),
    (from_conjugation(random_rank_operator(4, 5, 1, seed=1), transposed=True), 1),
], ids=["choi-1.5-seed0", "choi-1.5-seed1", "cell-3x4-rank2", "cell-4x5-rank1"])
def test_the_screen_never_changes_admission(monkeypatch, phi, seed):
    # the chunk offer's projections drop only candidates that its own rule would reject: with no
    # screen, every mined candidate is offered one by one with its residual, and the same pairs are
    # kept in the same order, with the same residuals.  Dropped candidates are the mined rows whose
    # image was never evaluated
    mined, evaluated = [], []
    mine, images = mapcert.zeros._mine_chunk, mapcert.zeros._rank_one_images

    def counted_mine(phi, outcomes):
        blocks = mine(phi, outcomes)
        mined.append(sum(len(xs) for xs, _ in blocks))
        return blocks

    def counted_images(phi, xs):
        evaluated.append(len(xs))
        return images(phi, xs)

    def unscreened(admission, blocks):
        flags = []
        for xs, hs in blocks:
            images = mapcert.zeros._rank_one_images(admission._phi, xs)
            residuals = [float(np.linalg.norm(image @ h)) for h, image in zip(hs, images)]
            flags.append(admission.offer_all(zip(xs, hs, residuals)))
        return flags

    monkeypatch.setattr(mapcert.zeros, "_mine_chunk", counted_mine)
    monkeypatch.setattr(mapcert.zeros, "_rank_one_images", counted_images)
    screened = harvest_zeros(phi, seed=seed)
    assert sum(mined) > sum(evaluated)
    mined.clear()
    evaluated.clear()
    monkeypatch.setattr(_Admission, "offer_chunk", unscreened)
    unscreened_set = harvest_zeros(phi, seed=seed)
    assert sum(mined) == sum(evaluated)
    assert pair_list(screened) == pair_list(unscreened_set) and screened.saturated == unscreened_set.saturated


CHOI_2 = generalized_choi_map(2)


def mine_one_pair(phi, outcome):
    """The candidates at one converged pair, mined on their own: at each near-null h = u_i, the pair
    itself first, (x, u_i) and then (conj(v_j), u_i) for each near-null eigenvector v_j of the x step at
    u_i.  The reference that ``_mine_chunk`` must equal bitwise, block by block."""
    x, bar = outcome.x, phi._zero_bar
    w, u = outcome.spectrum
    near = np.flatnonzero(np.abs(w) <= bar)
    spectra = {0: outcome.adjoint_spectrum}  # at h = u[:, 0]
    others = near[near > 0]
    if others.size:
        spectra.update(zip(others, zip(*mapcert.maps._x_step(phi, u[:, others].T))))
    candidates = [(x, outcome.h)]  # the pair itself
    for i in near:
        if i > 0:
            candidates.append((x, u[:, i]))
        w2, u2 = spectra[i]
        candidates += [(u2[:, j].conj(), u[:, i]) for j in np.flatnonzero(np.abs(w2) <= bar)]
    xs, hs = zip(*candidates)
    return np.array(xs), np.array(hs)


@pytest.mark.parametrize("phi", [
    from_conjugation(random_rank_operator(3, 4, 2, seed=1), transposed=True),
    from_conjugation(random_rank_operator(4, 5, 1, seed=1), transposed=True),
    generalized_choi_map(1.5),
    CHOI_2,
], ids=["cell-3x4-rank2", "cell-4x5-rank1", "choi-1.5", "choi-2"])
def test_the_chunk_miner_equals_mining_pair_by_pair_bitwise(monkeypatch, phi):
    # one stacked x step per chunk gives each converged pair the candidates, in the order and with
    # the bits, that mining it on its own gives.  The 4x5 rank-1 cell has several near-null h per
    # pair; the Choi map (a = 2) has failed descents in its chunks, which are not mined
    chunks, mined = [], []
    descent, mine = mapcert.zeros._alternating_descent, mapcert.zeros._mine_chunk

    def recorded_descent(phi, starts):
        chunks.append(descent(phi, starts))
        return chunks[-1]

    def recorded_mine(phi, outcomes):
        mined.append((outcomes, mine(phi, outcomes)))
        return mined[-1][1]

    monkeypatch.setattr(mapcert.zeros, "_alternating_descent", recorded_descent)
    monkeypatch.setattr(mapcert.zeros, "_mine_chunk", recorded_mine)
    harvest_zeros(phi, seed=1)
    assert mined and all(len(blocks) == len(outcomes) for outcomes, blocks in mined)
    for outcomes, blocks in mined:
        for outcome, (xs, hs) in zip(outcomes, blocks):
            ref_xs, ref_hs = mine_one_pair(phi, outcome)
            assert (xs.shape, hs.shape) == (ref_xs.shape, ref_hs.shape)
            assert xs.tobytes() == ref_xs.tobytes() and hs.tobytes() == ref_hs.tobytes()
    if phi.dim_out == 5:  # the rank-1 cell: several near-null h at every pair
        assert all(np.count_nonzero(np.abs(o.spectrum[0]) <= phi._zero_bar) > 1 for os, _ in mined for o in os)
    assert any(not o.succeeded for outcomes in chunks for o in outcomes) == (phi is CHOI_2)


@pytest.mark.parametrize("phi", [
    from_conjugation(random_rank_operator(4, 5, 1, seed=1), transposed=True),
    from_conjugation(random_rank_operator(3, 4, 2, seed=1), transposed=True),
    generalized_choi_map(1.5),
    CHOI_2,
], ids=["cell-4x5-rank1", "cell-3x4-rank2", "choi-1.5", "choi-2"])
def test_the_harvest_runs_at_most_one_mining_x_step_per_descended_chunk(monkeypatch, phi):
    # the structure, not a timing: mining binds ``mapcert.zeros._x_step``, while the descent's own
    # steps go through ``mapcert.maps._x_step`` and are not counted here
    chunks, x_steps = [], []
    descent, x_step = mapcert.zeros._alternating_descent, mapcert.zeros._x_step

    def counted_descent(phi, starts):
        chunks.append(len(starts))
        return descent(phi, starts)

    def counted_x_step(phi, hs):
        x_steps.append(len(hs))
        return x_step(phi, hs)

    monkeypatch.setattr(mapcert.zeros, "_alternating_descent", counted_descent)
    monkeypatch.setattr(mapcert.zeros, "_x_step", counted_x_step)
    harvest_zeros(phi, seed=1)
    assert len(x_steps) <= len(chunks)
    if phi.dim_out == 5:  # at most four near-null h per pair besides its own: a longer stack holds several pairs'
        assert x_steps and max(x_steps) > phi.dim_out - 1


class GramSchmidtTwice:
    """Reference admission: classical Gram-Schmidt applied twice to every candidate, which is admitted
    when its normalized residual off the orthonormal basis of the admitted ones exceeds 1e-7."""

    def __init__(self, dim):
        self.basis = np.zeros((0, dim), dtype=complex)

    def residual(self, vec):
        resid = vec / np.linalg.norm(vec)
        for _ in range(2):
            resid = resid - self.basis.T @ (self.basis.conj() @ resid)
        return resid

    def offer(self, vec):
        resid = self.residual(vec)
        if np.linalg.norm(resid) <= 1e-7:
            return False
        self.basis = np.vstack([self.basis, resid / np.linalg.norm(resid)])
        return True


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["random", "repeat", "near-1e-5", "near-1e-9"]), min_size=1, max_size=40),
       blocks=st.lists(st.integers(1, 8), min_size=1, max_size=40),
       chunks=st.lists(st.integers(1, 6), min_size=1, max_size=40))
def test_both_admission_entry_points_admit_what_gram_schmidt_twice_admits(n, m, seed, kinds, blocks, chunks):
    # a stream of exact repeats, random directions and perturbations of earlier candidates that leave
    # them about 1e-5 or 1e-9 off the admitted span; a candidate whose reference residual lies within
    # 10x of the 1e-7 cut is left out of the stream, where rounding may decide it either way.  The
    # stream is cut into blocks, and the blocks into chunks of several, so that a block is also
    # projected off the rows that earlier blocks of its chunk admitted
    rng = np.random.default_rng(seed)
    reference, stream, expected = GramSchmidtTwice(n * n * m), [], []
    for kind in kinds:
        if kind == "random" or not stream:
            x, h = _random_unit(rng, n), _random_unit(rng, m)
        else:
            x, h = stream[rng.integers(len(stream))]
            if kind != "repeat":
                delta = 1e-5 if kind == "near-1e-5" else 1e-9
                x, h = _normalize(x + delta * _random_unit(rng, n)), _normalize(h + delta * _random_unit(rng, m))
        if not 1e-8 <= np.linalg.norm(reference.residual(_strong_vector(x, h))) <= 1e-6:
            stream.append((x, h))
            if reference.offer(_strong_vector(x, h)):
                expected.append((x.tobytes(), h.tobytes()))
    phi = random_cp_map(n, m, 1, seed=0)
    phi.__dict__["_zero_bar"] = np.inf  # every candidate passes the residual test
    one_by_one, chunked = _Admission(phi), _Admission(phi)
    cuts = np.cumsum([0, *blocks])
    cuts = [*cuts[cuts < len(stream)], len(stream)]
    pieces = [stream[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    expected_flags = [one_by_one.offer_all((x, h, 0.0) for x, h in piece) for piece in pieces]
    groups = np.cumsum([0, *chunks])
    groups = [*groups[groups < len(pieces)], len(pieces)]
    flags = []
    for lo, hi in zip(groups, groups[1:]):
        flags += chunked.offer_chunk([tuple(np.array(side) for side in zip(*piece)) for piece in pieces[lo:hi]])
    assert flags == expected_flags
    for admission in (one_by_one, chunked):
        assert [(p.x.tobytes(), p.h.tobytes()) for p in admission.pairs] == expected


def test_the_admission_basis_stays_orthonormal_to_1e_10(monkeypatch):
    # the second Gram-Schmidt pass runs only after heavy cancellation, which leaves the basis orthonormal
    # to far better than the 1e-7 cut on the largest exact routes and on the harvest of every sweep cell
    bases = []
    zero_set = _Admission.zero_set

    def recorded(self, saturated):
        bases.append(self._basis[: len(self.pairs)].copy())
        return zero_set(self, saturated)

    monkeypatch.setattr(_Admission, "zero_set", recorded)
    analytic_zeros_conjugation(random_rank_operator(6, 8, 5, seed=1), transposed=True)
    analytic_zeros_conjugation(random_rank_operator(6, 6, 6, seed=1), transposed=False)
    for n, m, r in sweep_cells():
        harvest_zeros(from_conjugation(random_rank_operator(n, m, r, seed=1), transposed=True), seed=1)
    assert len(bases) == 2 + len(sweep_cells()) and len(bases[0]) > 200
    for basis in bases:
        assert np.max(np.abs(basis @ basis.conj().T - np.eye(len(basis)))) <= 1e-10


def test_harvest_rejects_empty_budget():
    with pytest.raises(ValueError):
        harvest_zeros(transpose_map(2), starts=0)


def test_local_search_finds_zero_of_transpose():
    out = _alternating_descent(transpose_map(2), [("x", _normalize(np.array([1.0, 0.5j])))])[0]
    assert out.succeeded
    assert out.residual <= 1e-9 * choi_spectral_scale(transpose_map(2))
    assert abs(np.vdot(out.x, out.h)) < 1e-9  # the known zero condition


def test_local_search_objective_never_increases(monkeypatch):
    # the objective after every half step: the bottom eigenvalue each step returns
    history = []
    h_step, x_step = mapcert.maps._h_step, mapcert.maps._x_step

    def recorded_h_step(phi, xs):
        images, (w, u) = h_step(phi, xs)
        history.append(float(w[0, 0]))
        return images, (w, u)

    def recorded_x_step(phi, hs):
        w, u = x_step(phi, hs)
        history.append(float(w[0, 0]))
        return w, u

    monkeypatch.setattr(mapcert.maps, "_h_step", recorded_h_step)
    monkeypatch.setattr(mapcert.maps, "_x_step", recorded_x_step)
    phi = from_conjugation(rank_operator(3, 4, 3, 12), transposed=True)
    _alternating_descent(phi, [("x", _normalize(np.ones(3)))])  # a stack of one
    scale = choi_spectral_scale(phi)
    assert len(history) >= 2
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-12 * scale)


def test_local_search_reports_failure_without_zeros():
    out = _alternating_descent(trace_map(2), [("x", _normalize(np.array([1.0, 1.0])))])[0]
    assert not out.succeeded
    assert out.residual > 0.1


def test_local_search_rejects_bad_starts():
    with pytest.raises(ValueError):
        _alternating_descent(transpose_map(2), [("x", np.zeros(2))])


def test_analytic_rejects_zero_operator():
    with pytest.raises(ZeroOperator):
        analytic_zeros_conjugation(np.zeros((2, 2)))


def test_analytic_untransposed_full_rank():
    v = rank_operator(2, 3, 2, 13)
    zs = analytic_zeros_conjugation(v, transposed=False)
    zh = harvest_zeros(from_conjugation(v, transposed=False), seed=0)
    assert strong_span_dim(zs) == strong_span_dim(zh) == 10


def positive_definite_map(n, m, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n * m, n * m)) + 1j * rng.standard_normal((n * m, n * m))
    return MapOperator(n, m, g @ g.conj().T)


@pytest.mark.parametrize("starts", [None, 5])
def test_find_zeros_runs_no_descent_on_a_positive_definite_block_matrix(monkeypatch, starts):
    # lambda_min(C) > residual_rel_tol * scale proves that no candidate could be admitted
    phi = positive_definite_map(2, 3, 3)
    w = phi._spectrum[0]
    assert w[0] > DEFAULT_TOL.residual_rel_tol * choi_spectral_scale(phi)
    harvested = harvest_zeros(phi, seed=0, starts=starts)
    calls = counted_descents(monkeypatch)
    zs = find_zeros(phi, seed=0, starts=starts)
    assert calls == []
    assert zs.pairs == harvested.pairs == []
    assert zs.weak_vectors.shape == (0, 6) and zs.strong_vectors.shape == (0, 12)
    # the proven empty set is complete whatever the budget; the harvest's, whose starts all fail,
    # saturates iff its budget reaches the stall window
    assert zs.saturated and harvested.saturated == (starts is None)


def test_moving_the_maps_zero_bar_moves_every_reader():
    # C = diag(1, 1, 1, +-1e-6) on 2 -> 2: scale 1, so the default bar is 1e-9.  Its one small
    # eigenvalue sits at Phi(E_11) = diag(1, +-1e-6): a residual, worst value and lambda_min of 1e-6
    def diagonal_map(last, bar=None):
        phi = MapOperator(2, 2, np.diag([1.0, 1.0, 1.0, last]).astype(complex))
        if bar is not None:
            phi.__dict__["_zero_bar"] = bar  # overwrites the cached value before any reader asks
        return phi

    e1 = np.array([0.0, 1.0], dtype=complex)
    for bar, zero in ((None, False), (2e-6, True)):
        assert _is_psd(diagonal_map(-1e-6, bar), transposed=False) == zero
        assert is_positive_heuristic(diagonal_map(-1e-6, bar)).passed == zero
        assert _alternating_descent(diagonal_map(1e-6, bar), [("x", e1)])[0].succeeded == zero
        assert _Admission(diagonal_map(1e-6, bar)).offer(e1, e1, 1e-6) == zero
        # lambda_min(C) = 1e-6 proves the map zero-free only above the bar; at or below it the
        # harvest runs and finds the pair (e1, e1)
        zs = find_zeros(diagonal_map(1e-6, bar), starts=20)
        assert (len(zs.pairs) > 0) == zero


def test_find_zeros_rejects_an_empty_budget():
    with pytest.raises(ValueError):
        find_zeros(positive_definite_map(2, 2, 0), starts=0)


@pytest.mark.parametrize("eps, rank_rel_tol", [(5e-9, 1e-8), (1e-4, 1e-3)])
def test_find_zeros_harvests_a_rank_1_block_matrix_whose_other_eigenvalue_fails_admission(monkeypatch, eps, rank_rel_tol):
    # C = vv* + eps ww* has rank 1 at rank_rel_tol, but eps is above admission (1e-9 * scale):
    # the pairs of the one operator read off vv* have residuals up to eps * scale (at 1e-4 the
    # exact route admitted none of them), while the genuine zeros span ker C, of dimension nm - 2
    rng = np.random.default_rng(11)
    n, m = 2, 3
    v = _normalize(rng.standard_normal(n * m) + 1j * rng.standard_normal(n * m))
    w = rng.standard_normal(n * m) + 1j * rng.standard_normal(n * m)
    w = _normalize(w - (v.conj() @ w) * v)
    phi = MapOperator(n, m, np.outer(v, v.conj()) + eps * np.outer(w, w.conj()))

    def no_kraus(*args):
        raise AssertionError("the Kraus route ran")

    harvest = mapcert.zeros.harvest_zeros
    harvested = []
    monkeypatch.setattr(mapcert.zeros, "_kraus_zeros", no_kraus)
    monkeypatch.setattr(mapcert.zeros, "harvest_zeros", lambda *a, **k: harvested.append(a) or harvest(*a, **k))
    zs = find_zeros(phi, seed=0, tol=ToleranceConfig(rank_rel_tol))
    assert len(harvested) == 1
    reference = harvest(phi, seed=0)
    assert [(p.x.tobytes(), p.h.tobytes()) for p in zs.pairs] == [(p.x.tobytes(), p.h.tobytes()) for p in reference.pairs]
    assert zs.saturated and weak_span_dim(zs) >= n * m - 2


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("v, dims", [(np.ones((1, 1)), 0), (rank_operator(1, 4, 1, 2), 3)])
def test_a_conjugation_on_one_dimensional_input_has_the_partners_of_its_one_point(v, dims, transposed):
    # n = 1: every x is one point up to phase, whose partners are the kernel of the 1 x m row
    zs = analytic_zeros_conjugation(v, transposed=transposed)
    assert (len(zs.pairs), weak_span_dim(zs), strong_span_dim(zs), zs.saturated) == (dims, dims, dims, True)


def test_a_kraus_map_on_one_dimensional_input_runs_no_descent(monkeypatch):
    # n = 1 with M(y) = [K_1 y K_2 y] of full rank m = 2: the row kernels at the one point are empty
    calls = counted_descents(monkeypatch)
    zs = find_zeros(cp_map_from_kraus(random_kraus_operators(1, 2, 2, seed=0)))
    assert calls == [] and zs.pairs == [] and zs.saturated


def common_kernel_cp_map(n, m, k, d, seed):
    """A CP map whose k Kraus operators G_s P share the d-dimensional kernel of the projection P."""
    rng = np.random.default_rng(seed)
    g = lambda a, b: rng.standard_normal((a, b)) + 1j * rng.standard_normal((a, b))
    q = np.linalg.qr(g(n, n - d))[0]
    return cp_map_from_kraus([g(m, n) @ q @ q.conj().T for _ in range(k)])


@pytest.mark.parametrize("n, m, k, d", [(4, 3, 2, 3), (3, 3, 2, 2)])
def test_kraus_operators_with_a_common_kernel_give_every_partner_on_it(monkeypatch, n, m, k, d):
    # K_s = G_s P with P of rank n - d: on ker P, M(y) = 0 and every h is a partner, where
    # random points have m - 1; they miss it (the spans read 4 / 16 and 3 / 9 without it)
    phi = common_kernel_cp_map(n, m, k, d, seed=1)
    harvested = harvest_zeros(phi, seed=0)
    calls = counted_descents(monkeypatch)
    zs = find_zeros(phi)
    assert calls == [] and zs.saturated
    assert (weak_span_dim(zs), strong_span_dim(zs)) == (weak_span_dim(harvested), strong_span_dim(harvested))
    assert strong_span_dim(zs) == len(zs.pairs) == {4: 34, 3: 17}[n]


def perfbench_workloads():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def perfbench_maps(kinds):
    """The map of each perfbench analyze-mixed and analyze-large entry of a kind in ``kinds``, at seed 1."""
    workloads = perfbench_workloads()
    for index, spec in enumerate(workloads.MIXED + workloads.LARGE):
        if spec[0] in kinds:
            document = workloads.make_document(np.random.default_rng([1, index]), *spec)
            yield spec, to_map_operator(parse_map_file(json.dumps(document)))


def test_find_zeros_and_the_harvest_referee_each_other_on_the_benchmark_documents(monkeypatch):
    harvest, kraus_zeros = mapcert.zeros.harvest_zeros, mapcert.zeros._kraus_zeros
    harvested_inside, kraus_specs = [], []
    monkeypatch.setattr(mapcert.zeros, "harvest_zeros", lambda *a, **k: harvested_inside.append(a) or harvest(*a, **k))
    checked = []
    for spec, phi in perfbench_maps(("conjugation", "random-choi", "random-cp")):
        kind, n, m, k, _ = spec
        if kind == "random-cp" and k >= m and n <= m:
            continue  # 2x2 k=2 and 3x3 k=3, where the harvest admits inexact pairs; 2x2 k=3 and 2x3 k=4
        monkeypatch.setattr(mapcert.zeros, "_kraus_zeros", lambda *a, spec=spec: kraus_specs.append(spec) or kraus_zeros(*a))
        found, harvested = find_zeros(phi, seed=1), harvest(phi, seed=1)
        assert (weak_span_dim(found), strong_span_dim(found)) == (
            weak_span_dim(harvested), strong_span_dim(harvested)), spec
        checked.append(spec)
    # every entry took a spectral route: 12 + 2 + 5 analyze-mixed entries (the random CP ones
    # with k < m, and 3x2 and 4x3 with k = m), 3 analyze-large ones; the conjugations (k = 1)
    # and the random CP ones reached the Kraus route, the random Choi ones are zero-free
    assert harvested_inside == []
    assert len(checked) == 22
    assert kraus_specs == [spec for spec in checked if spec[0] != "random-choi"] and len(kraus_specs) == 19


def counted_descents(monkeypatch):
    """The sides ("x" or "h") of the starts of each stacked descent the harvest runs, one list per call."""
    calls = []
    descent = mapcert.zeros._alternating_descent
    monkeypatch.setattr(mapcert.zeros, "_alternating_descent",
                        lambda phi, starts: calls.append([side for side, _ in starts]) or descent(phi, starts))
    return calls


def test_find_zeros_runs_no_descent_on_the_analyze_mixed_cp_documents(monkeypatch):
    # the documents perfbench's analyze-mixed builds, with their analyze seeds
    workloads = perfbench_workloads()
    calls = counted_descents(monkeypatch)
    checked = 0
    for seed in (1, 2, 3):
        for index, spec in enumerate(workloads.MIXED * workloads.MIXED_COPIES):
            rng = np.random.default_rng([seed, 2, index])
            document = workloads.make_document(rng, *spec)
            if spec[0] != "random-cp":
                continue
            kind, n, m, k, _ = spec
            zs = find_zeros(to_map_operator(parse_map_file(json.dumps(document))), seed=int(rng.integers(2**31)))
            assert zs.saturated and weak_span_dim(zs) <= n * m - k, (seed, index)
            checked += 1
    assert calls == []
    assert checked == 3 * 9 * workloads.MIXED_COPIES


def kraus_routes(monkeypatch):
    """Record the ``transposed`` flag of every Kraus route that runs, and fail if the harvest does."""
    routes = []
    kraus_zeros = mapcert.zeros._kraus_zeros

    def recorded(phi, stack, transposed, tol):
        routes.append(transposed)
        return kraus_zeros(phi, stack, transposed, tol)

    def no_harvest(*args, **kwargs):
        raise AssertionError("the harvest ran")

    monkeypatch.setattr(mapcert.zeros, "_kraus_zeros", recorded)
    monkeypatch.setattr(mapcert.zeros, "harvest_zeros", no_harvest)
    return routes


@pytest.mark.parametrize("n, m, k", [(2, 3, 2), (2, 2, 2), (3, 3, 3), (3, 2, 2)])
def test_a_co_cp_choi_document_takes_the_transposed_kraus_route(monkeypatch, n, m, k):
    # Phi(a) = sum K a^T K^H: the partial transpose of C is PSD of rank k, and (x, h) is a
    # zero of Phi iff (conj(x), h) is one of the CP map a -> sum K a K^H, whose strong
    # vectors are those of Phi with the first two factors swapped
    cp = cp_map_from_kraus(random_kraus_operators(n, m, k, seed=4))
    choi = cp.choi.reshape(n, m, n, m).transpose(2, 1, 0, 3).reshape(n * m, n * m)
    document = {"kind": "choi", "dim_in": n, "dim_out": m, "payload": matrix_to_payload(choi)}
    phi = to_map_operator(parse_map_file(json.dumps(document)))
    routes = kraus_routes(monkeypatch)
    zs, reference = find_zeros(phi), find_zeros(cp)
    assert routes == [True, False]
    assert zs.pairs and strong_span_dim(zs) == strong_span_dim(reference)
    assert max(p.residual for p in zs.pairs) <= 1e-12 * choi_spectral_scale(phi)


@pytest.mark.parametrize("m, k", [(2, 3), (3, 4)])
@pytest.mark.parametrize("seed", range(4))
def test_the_p1_pencil_proves_a_cp_map_on_m2_with_k_above_m_zero_free(monkeypatch, m, k, seed):
    phi = cp_map_from_kraus(random_kraus_operators(2, m, k, seed=seed))
    calls = counted_descents(monkeypatch)
    for starts in (None, 5):
        zs = find_zeros(phi, seed=seed, starts=starts)
        # no root of the pencil is a zero: the empty set is proven, so complete whatever the budget
        assert zs.pairs == [] and zs.saturated
    assert calls == []


@pytest.mark.parametrize("n, m, k", [(2, 2, 2), (3, 3, 3), (3, 3, 4), (2, 3, 4)])
def test_a_cp_map_with_a_deficient_unit_image_takes_the_row_kernels(monkeypatch, n, m, k):
    # K_s = P G_s with P of rank m - 1: M(y) has rank m - 1 < m at every y even where k >= m,
    # so every x has the partners ker P, and no pencil (whose B would be singular) runs
    rng = np.random.default_rng(3)
    g = lambda a, b: rng.standard_normal((a, b)) + 1j * rng.standard_normal((a, b))
    q = np.linalg.qr(g(m, m - 1))[0]
    phi = cp_map_from_kraus([q @ q.conj().T @ g(m, n) for _ in range(k)])
    harvested = harvest_zeros(phi, seed=0)

    def no_pencil(*args):
        raise AssertionError("a pencil ran")

    routes = kraus_routes(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigvals", no_pencil)
    zs = find_zeros(phi)
    assert routes == [False] and zs.saturated
    assert (weak_span_dim(zs), strong_span_dim(zs)) == (weak_span_dim(harvested), strong_span_dim(harvested)) == (n, n * n)


def test_a_cp_map_with_k_above_m_at_n_3_is_harvested(monkeypatch):
    # k = 4 exceeds both n = 3 and m = 3, so neither the primal nor the dual side has an exact route
    phi = cp_map_from_kraus(random_kraus_operators(3, 3, 4, seed=0))
    calls = counted_descents(monkeypatch)
    zs = find_zeros(phi, seed=0)
    assert calls and [(p.x.tobytes(), p.h.tobytes()) for p in zs.pairs] == [
        (p.x.tobytes(), p.h.tobytes()) for p in harvest_zeros(phi, seed=0).pairs]


def span_summary(zs):
    return len(zs.pairs), weak_span_dim(zs), strong_span_dim(zs), zs.saturated


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n, m, k", [(3, 3, 3), (4, 3, 3), (3, 4, 3), (3, 2, 2)])
def test_the_dual_side_matches_the_primal_side_where_both_route_exactly(n, m, k, seed):
    # the dual side runs on the stack K_s^T and offers each of its zeros (x', h') to Phi as (h', x')
    phi = random_cp_map(n, m, k, seed=seed)
    stack = mapcert.maps._kraus_stack(phi, k, False)
    primal = mapcert.zeros._kraus_zeros(phi, stack, False, DEFAULT_TOL)
    dual = mapcert.zeros._kraus_route(phi, stack.transpose(0, 2, 1), False, DEFAULT_TOL, dual=True)
    assert span_summary(dual) == span_summary(primal)
    for p in dual.pairs:
        assert p.residual <= phi._zero_bar
        assert np.linalg.norm(apply(phi, np.outer(p.x.conj(), p.x)) @ p.h) <= phi._zero_bar


@pytest.mark.parametrize("n, m, k, pairs", [(3, 2, 3, 3), (4, 2, 4, 4), (4, 3, 4, 32)])
def test_a_cp_map_that_only_the_dual_side_routes_keeps_its_ceilings(monkeypatch, n, m, k, pairs):
    # k > m at n >= 3 leaves the primal side open; on K_s^T (m -> n) k = n, where the pencils apply
    phi = random_cp_map(n, m, k, seed=1)
    calls = counted_descents(monkeypatch)
    zs = find_zeros(phi)
    assert not calls and zs.saturated
    assert (len(zs.pairs), weak_span_dim(zs), strong_span_dim(zs)) == (pairs, n * m - k, pairs)
    assert strong_span_dim(zs) <= n * (n * m - k)


def partial_transpose(phi):
    """The map a -> Phi(a^T): its block matrix is the partial transpose of Phi's."""
    n, m = phi.dim_in, phi.dim_out
    return MapOperator(n, m, phi.choi.reshape(n, m, n, m).transpose(2, 1, 0, 3).reshape(n * m, n * m))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n, m, k, optimal", [(3, 2, 3, INCONCLUSIVE), (4, 2, 4, INCONCLUSIVE), (4, 3, 4, CERTIFIED)])
def test_a_co_cp_map_that_only_the_dual_side_routes_has_the_zeros_of_its_cp_twin(monkeypatch, n, m, k, optimal, seed):
    # a -> Phi(a^T) is co-CP with the Kraus stack of the CP twin Phi, and k > m at n >= 3 leaves its
    # primal side open; its zeros are the twin's (x, h) as (conj(x), h), so the dual side on K_s^T keeps
    # as many pairs with as large a strong span.  Before the dual side served co-CP maps, the harvest
    # kept 9 and 12 pairs on the first two shapes and certified them, and the third exceeded its ceiling
    twin = random_cp_map(n, m, k, seed=seed)
    phi = partial_transpose(twin)
    reference = find_zeros(twin, seed=1)
    routes = kraus_routes(monkeypatch)
    zs = find_zeros(phi, seed=1)
    assert routes == [True] and zs.saturated
    assert (len(zs.pairs), strong_span_dim(zs)) == (len(reference.pairs), strong_span_dim(reference))
    # both residuals of each pair are within the zero bar: the quadratic one, ||Phi(|conj(x)><conj(x)|) h||,
    # and the linear one, ||Phi*(|h><h|) conj(x)||, which a pair only near the zero set reads about
    # the square root of its quadratic one
    xs, hs = np.array([p.x for p in zs.pairs]), np.array([p.h for p in zs.pairs])
    quadratic = [np.linalg.norm(apply(phi, np.outer(p.x.conj(), p.x)) @ p.h) for p in zs.pairs]
    adjoint_images = mapcert.maps._rank_one_images(phi, hs.conj(), adjoint=True)
    linear = np.linalg.norm(np.einsum("skl,sl->sk", adjoint_images, xs.conj()), axis=1)
    assert max(*quadratic, *linear, *(p.residual for p in zs.pairs)) <= phi._zero_bar
    assert certify_optimal(phi, zs).verdict == optimal
    assert certify_exposed(phi, zs).verdict == INCONCLUSIVE


@pytest.mark.parametrize("seed", range(3))
def test_the_optimal_certificate_of_the_dual_routed_co_cp_map_rests_on_a_wide_weak_margin(seed):
    # 4 -> 3 at k = 4 certifies Optimal on 32 exact zeros whose weak vectors span all of C^12; the
    # twelfth singular value of their rows is at least 4.7e-2 of the first, six orders above the rank
    # cut, so the full weak span does not rest on the threshold
    zs = find_zeros(partial_transpose(random_cp_map(4, 3, 4, seed=seed)), seed=1)
    s = np.linalg.svd(zs.weak_vectors, compute_uv=False)
    assert len(s) == 12 and s[11] >= 4.7e-2 * s[0]


@pytest.mark.parametrize("n, m, k", [(2, 3, 2), (2, 2, 2), (3, 3, 3), (4, 3, 3), (3, 4, 3)])
def test_the_kraus_routes_keep_one_pair_list_at_every_seed(n, m, k):
    # they draw from a fixed generator, not from --seed
    phi = cp_map_from_kraus(random_kraus_operators(n, m, k, seed=2))
    lists = {tuple((p.x.tobytes(), p.h.tobytes()) for p in find_zeros(phi, seed=seed).pairs) for seed in range(4)}
    assert len(lists) == 1 and len(next(iter(lists))) == strong_span_dim(find_zeros(phi))


# (the map, its Kraus count k, and the rank of Phi(1) that the route is made to read, None for its own)
CEILING_CASES = [
    pytest.param(lambda: random_cp_map(2, 3, 2, seed=0), 2, None, id="rows-cp-2x3-k2"),
    pytest.param(lambda: from_conjugation(rank_operator(3, 4, 2, 5), transposed=True), 1, None,
                 id="common-kernel-conjugation-3x4-rank2"),
    pytest.param(lambda: random_cp_map(3, 3, 3, seed=0), 3, None, id="line-pencils-cp-3x3-k3"),
    # at n = 2 the P^1 pencil finds m pairs, below the ceiling 2(2m - k) = 2m, so the route reads a
    # larger rank of Phi(1): a ceiling of 1, reached at the first root of the one line, and one of m = 2,
    # reached by the common kernel before the line is drawn
    pytest.param(lambda: random_cp_map(2, 2, 2, seed=0), 2, 7, id="p1-pencil-cp-2x2-k2-ceiling-1"),
    pytest.param(lambda: common_kernel_cp_map(2, 2, 2, 1, seed=0), 2, 6, id="p1-pencil-common-kernel-ceiling-2"),
]


@pytest.mark.parametrize("make, k, unit_rank", CEILING_CASES)
def test_an_exact_route_stops_saturated_at_its_ceiling(monkeypatch, make, k, unit_rank):
    phi = make()
    n, m = phi.dim_in, phi.dim_out
    if unit_rank is None:
        unit_rank = np.linalg.matrix_rank(apply(phi, np.eye(n)))
    else:
        monkeypatch.setattr(mapcert.zeros, "_unit_image", lambda phi, tol: (np.ones(unit_rank), None))
    ceiling = min(n * n * m - unit_rank, n * (n * m - k))
    # ("offer", admitted count after it, x) per offer and ("cut", admitted count) per row-kernel solve
    events, admissions = [], []
    offer, row_kernels = _Admission.offer, mapcert.zeros._row_kernels

    def counted_offer(self, x, h, residual):
        admissions[:] = [self]
        admitted = offer(self, x, h, residual)
        events.append(("offer", len(self.pairs), x))
        return admitted

    def counted_row_kernels(*args):
        events.append(("cut", len(admissions[0].pairs) if admissions else 0, None))
        return row_kernels(*args)

    monkeypatch.setattr(_Admission, "offer", counted_offer)
    monkeypatch.setattr(mapcert.zeros, "_row_kernels", counted_row_kernels)
    calls = counted_descents(monkeypatch)
    zs = find_zeros(phi)
    assert calls == [] and zs.saturated
    assert len(zs.pairs) == strong_span_dim(zs) == ceiling
    # no cut once the count reached the ceiling, and no offer but the rest of the partner block of the
    # point whose pair reached it
    assert all(count < ceiling for kind, count, _ in events if kind == "cut")
    offers = [(count, x) for kind, count, x in events if kind == "offer"]
    reached = next(i for i, (count, _) in enumerate(offers) if count == ceiling)
    assert all(x is offers[reached][1] for _, x in offers[reached:])
