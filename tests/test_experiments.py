import sys
from pathlib import Path

import numpy as np
import pytest

from mapcert import experiments
from mapcert.errors import DimensionMismatch, OracleUnstable, RankInfeasible, ZeroOperator
from mapcert.experiments import (
    BOTH_RULES,
    INPUT_RULE,
    _oracle_generators,
    brute_force_strong_dim_oracle,
    candidate_dims,
    check_image_inclusion,
    random_cp_map,
    random_kraus_operators,
    random_rank_operator,
    run_dimension_sweep,
    sweep_cells,
)
from mapcert.linalg import DEFAULT_TOL, kernel_basis, numerical_rank, span_dimension
from mapcert.maps import _cp_rank, _random_unit, from_conjugation


def test_candidate_dims_formulas():
    # full rank at n = m: both rules collapse to the same number
    assert candidate_dims(2, 2, 2) == (6, 6)
    assert candidate_dims(3, 3, 3) == (24, 24)
    # rectangular, rank >= 2: the rules separate
    assert candidate_dims(2, 3, 2) == (10, 9)
    assert candidate_dims(3, 4, 3) == (33, 32)
    # rank 1 has its own pair
    assert candidate_dims(2, 2, 1) == (5, 5)
    assert candidate_dims(2, 3, 1) == (9, 7)


def test_random_rank_operator_has_requested_rank():
    for rank in (1, 2, 3):
        v = random_rank_operator(3, 4, rank, seed=3)
        assert v.shape == (3, 4)
        assert numerical_rank(v) == rank


def test_random_rank_operator_rejects_impossible_rank():
    with pytest.raises(RankInfeasible):
        random_rank_operator(2, 3, 3)
    with pytest.raises(RankInfeasible):
        random_rank_operator(2, 2, 0)


def test_random_kraus_and_cp_map():
    ops = random_kraus_operators(2, 3, 4, seed=1)
    assert len(ops) == 4
    assert all(k.shape == (3, 2) for k in ops)
    phi = random_cp_map(2, 3, seed=1)
    assert _cp_rank(phi) is not None
    again = random_cp_map(2, 3, seed=1)
    assert np.array_equal(phi.choi, again.choi)
    with pytest.raises(ValueError):
        random_kraus_operators(2, 2, 0)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_rank2_count_matches_closed_form(m):
    report = run_dimension_sweep(2, m, 2)
    assert report.measured_strong_dim == 4 * m - 2
    assert report.agrees_with in (INPUT_RULE, BOTH_RULES)


def test_rank2_count_rejects_small_m():
    with pytest.raises(RankInfeasible):
        run_dimension_sweep(2, 1, 2)


@pytest.mark.parametrize("n, m, rank", [(4, 1, 1), (1, 3, 1), (1, 1, 1)])
def test_the_sweep_rejects_a_one_dimensional_side(n, m, rank):
    # a feasible rank with n or m below 2: with m = 1 the harvest used to miss strong directions,
    # and (4, 1, 1) raised CrossCheckError (analytic strong dim 9 != harvested 6)
    with pytest.raises(DimensionMismatch, match="n, m >= 2"):
        run_dimension_sweep(n, m, rank)


def test_sweep_cell_rank1():
    report = run_dimension_sweep(2, 3, 1, seed=0)
    assert report.measured_strong_dim == 9
    assert report.agrees_with == INPUT_RULE
    assert report.strong_target == 11


def test_sweep_cell_square_full_rank():
    report = run_dimension_sweep(2, 2, 2, seed=2)
    assert report.measured_strong_dim == 6
    assert report.agrees_with == BOTH_RULES
    assert report.strong_target == 6


def test_sweep_cell_rectangular():
    report = run_dimension_sweep(3, 4, 3, seed=0)
    assert report.measured_strong_dim == 33
    assert report.agrees_with == INPUT_RULE


def test_sweep_default_cells_cover_all_ranks():
    cells = sweep_cells()
    assert len(cells) == 32
    assert (2, 2, 1) in cells and (4, 5, 4) in cells
    assert all(1 <= r <= min(n, m) for n, m, r in cells)


@pytest.mark.parametrize(
    "v,transposed,expected",
    [
        (np.eye(2), True, 6),
        (np.eye(2), False, 6),
        (random_rank_operator(2, 3, 1, seed=9), True, 9),
        (random_rank_operator(3, 3, 2, seed=10), True, 24),
    ],
)
def test_oracle_frozen_values(v, transposed, expected):
    assert brute_force_strong_dim_oracle(v, transposed=transposed, seed=0) == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e160])
def test_the_oracle_dimension_does_not_depend_on_the_scale_of_v(scale):
    # each row is scaled to its largest entry before its norm is taken, by the free rule and by the
    # kernel cut, so no norm overflows (a RuntimeWarning fails the test) or underflows: a plain row
    # norm reads 0 below about 1e-162, where every row would read free
    v = random_rank_operator(3, 4, 2, seed=1)
    assert brute_force_strong_dim_oracle(scale * v, seed=0) == brute_force_strong_dim_oracle(v, seed=0) == 33


def test_oracle_agrees_with_analytic_routes():
    v = random_rank_operator(2, 3, 2, seed=8)
    report = run_dimension_sweep(2, 3, 2, seed=8)
    assert brute_force_strong_dim_oracle(v, seed=0) == report.measured_strong_dim


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_oracle_gives_the_input_rule_on_every_default_cell(seed):
    wrong = []
    for n, m, r in sweep_cells():
        v = random_rank_operator(n, m, r, seed=seed)
        dim = brute_force_strong_dim_oracle(v, seed=seed)
        if dim != candidate_dims(n, m, r)[0]:
            wrong.append((n, m, r, dim))
    assert wrong == []


def per_point_generators(v, transposed, stratum, grid, seed, stage):
    """The oracle's strong columns one point at a time: a ``_random_unit`` draw per x, its row's
    kernel cut alone (all of C^m where the row is free) and ``np.kron`` per partner h."""
    n, m = v.shape
    sigma_top = np.linalg.svd(v, compute_uv=False)[0]
    rng = np.random.default_rng([seed, stage])
    xs = [_random_unit(rng, n) for _ in range(grid)]
    if stratum is not None:
        d = stratum.shape[1]
        xs += [stratum @ _random_unit(rng, d) for _ in range((d * d + d + 4) * max(1, stage + 1))]
    columns = []
    for x in xs:
        row = (x.conj() if transposed else x) @ v
        free = np.linalg.norm(row) <= DEFAULT_TOL.rank_rel_tol * sigma_top
        hs = np.eye(m) if free else kernel_basis(row[None], DEFAULT_TOL)
        columns += [np.kron(np.kron(x.conj(), x), h) for h in hs.T]
    return np.array(columns).T, len(xs) - grid


@pytest.mark.parametrize("n,m,rank,transposed", [(3, 4, 3, True), (4, 3, 2, True), (3, 3, 2, False)])
def test_batched_oracle_generators_equal_the_per_point_kronecker_construction(n, m, rank, transposed):
    v = random_rank_operator(n, m, rank, seed=5)
    sigma_top = float(np.linalg.svd(v, compute_uv=False)[0])
    stratum = None if rank == n else kernel_basis(v.conj().T if transposed else v.T)
    for stage in (0, 1):
        batched = _oracle_generators(v, transposed, sigma_top, stratum, 30, DEFAULT_TOL, 5, stage)
        reference, free_points = per_point_generators(v, transposed, stratum, 30, 5, stage)
        # generic points give m - 1 partners, the stratum's free rows all m
        assert (free_points > 0) == (stratum is not None)
        assert batched.shape == reference.shape == (n * n * m, 30 * (m - 1) + free_points * m)
        # each point's columns span its reference columns: both are orthonormal (a unit conj(x) (x) x
        # times orthonormal partners), so their projectors are B B^H, whatever kernel basis was cut
        ends = np.cumsum([m - 1] * 30 + [m] * free_points)
        for b, r in zip(np.split(batched, ends[:-1], axis=1), np.split(reference, ends[:-1], axis=1)):
            assert np.linalg.norm(b @ b.conj().T - r @ r.conj().T) <= 1e-13 * np.linalg.norm(r @ r.conj().T)
        assert span_dimension(batched) == span_dimension(reference)


@pytest.mark.parametrize("grid", [200, 8])
@pytest.mark.parametrize("n,m,rank,transposed", [(3, 4, 3, True), (4, 3, 2, True), (3, 3, 2, False), (3, 2, 1, False)])
def test_one_oracle_call_runs_one_svd_of_v_and_one_per_stage(n, m, rank, transposed, grid, monkeypatch):
    # sigma_max, rank V and the stratum come from one SVD of V, the kernels of the rows at the points
    # need none, and each stage decides one rank; rank V < n (a stratum) costs no further SVD
    v = random_rank_operator(n, m, rank, seed=5)
    svd, generators = np.linalg.svd, experiments._oracle_generators
    counts = {"svd": 0, "stages": 0}

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_generators(*args):
        counts["stages"] += 1
        return generators(*args)

    monkeypatch.setattr(experiments, "_ORACLE_GRID", grid)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(experiments, "_oracle_generators", counted_generators)
    try:
        brute_force_strong_dim_oracle(v, transposed=transposed, seed=5)
    except OracleUnstable:
        pass
    assert counts["stages"] >= 2 and counts["svd"] == 1 + counts["stages"]


def spied_oracle_stages(n, m, rank, transposed, grid, monkeypatch):
    """Run the oracle on a seeded n x m operator of the given rank at ``grid`` points, and return each
    stage's block of strong columns, its dimension (the running sum of the directions the rank cut
    keeps, the appended reference excluded) and the shape of each QR it runs."""
    v = random_rank_operator(n, m, rank, seed=5)
    blocks, new, qr_shapes = [], [], []
    generators, kept, qr = experiments._oracle_generators, experiments._kept, np.linalg.qr

    def drawn(*args):
        blocks.append(generators(*args))
        return blocks[-1]

    def counted(values, tol):
        mask = kept(values, tol)
        new.append(int(np.count_nonzero(mask[:-1])))
        return mask

    def qr_spy(a, *args, **kwargs):
        qr_shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(experiments, "_ORACLE_GRID", grid)
    monkeypatch.setattr(experiments, "_oracle_generators", drawn)
    monkeypatch.setattr(experiments, "_kept", counted)
    monkeypatch.setattr(np.linalg, "qr", qr_spy)
    try:
        brute_force_strong_dim_oracle(v, transposed=transposed, seed=5)
    except OracleUnstable:
        pass
    return blocks, [int(dim) for dim in np.cumsum(new)], qr_shapes


@pytest.mark.parametrize("grid", [200, 8, 1])
@pytest.mark.parametrize("n,m,rank,transposed", [(3, 4, 3, True), (4, 3, 2, True), (3, 3, 2, False)])
def test_each_oracle_stage_is_the_span_of_every_block_drawn_so_far(n, m, rank, transposed, grid, monkeypatch):
    blocks, dims, _ = spied_oracle_stages(n, m, rank, transposed, grid, monkeypatch)
    assert len(dims) == len(blocks) >= 2
    # grid 200 accepts at stage 1; grids 8 and 1 run more stages, the stratum cell (4x3 rank 2) included
    assert grid == 200 or len(dims) >= 3
    assert dims == [span_dimension(np.hstack(blocks[: stage + 1])) for stage in range(len(dims))]
    assert dims == sorted(dims)


@pytest.mark.parametrize("grid", [200, 8, 1])
@pytest.mark.parametrize("n,m,rank,transposed", [(3, 4, 3, True), (4, 3, 2, True), (3, 3, 2, False)])
def test_each_later_oracle_stage_factors_only_the_complement_of_the_span_so_far(n, m, rank, transposed, grid,
                                                                                monkeypatch):
    # stage 0 factors its strong columns, as rows of n^2 m entries; every later stage factors only
    # their coordinates on the complement of the span so far, n^2 m - d of them at dimension d
    blocks, dims, qr_shapes = spied_oracle_stages(n, m, rank, transposed, grid, monkeypatch)
    assert len(qr_shapes) == len(blocks) == len(dims) >= 2
    assert [rows for rows, _ in qr_shapes] == [block.shape[1] for block in blocks]
    assert qr_shapes[0][1] == n * n * m
    assert [cols for _, cols in qr_shapes[1:]] == [n * n * m - dim for dim in dims[:-1]]


def test_the_oracle_never_runs_an_svd_wider_or_taller_than_n2m(monkeypatch):
    n, m = 4, 5
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    assert brute_force_strong_dim_oracle(random_rank_operator(n, m, 4, seed=1), seed=1) == n * n * m - n
    assert max(max(shape[-2:]) for shape in shapes) == n * n * m  # the rank decisions, on R
    assert (n * n * m, n * n * m) in shapes


def test_an_oracle_that_never_settles_names_each_stage(monkeypatch):
    # 4x5 rank 4 spans 76 dimensions; at most 16 points of 4 columns each cannot fill them
    monkeypatch.setattr(experiments, "_ORACLE_GRID", 1)
    with pytest.raises(OracleUnstable) as info:
        brute_force_strong_dim_oracle(random_rank_operator(4, 5, 4, seed=0), seed=0)
    assert str(info.value) == (
        "oracle dimension kept changing at every stage "
        "(points drawn -> dimension: 1 -> 4, 2 -> 8, 4 -> 16, 8 -> 32, 16 -> 64)"
    )


def test_oracle_workload_truth_check_passes(tmp_path):
    # The benchmark's oracle-grid workload checks each cell against the
    # input rule; its first ops must pass on the current code.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    workload = workloads.build("oracle-grid", 0, str(tmp_path))
    for op in workload.ops[:4]:
        assert op.check(op.invoke()) == {}


def test_oracle_input_validation():
    with pytest.raises(ZeroOperator):
        brute_force_strong_dim_oracle(np.zeros((2, 2)))


def test_image_inclusion_holds_for_positive_maps():
    report = check_image_inclusion(random_cp_map(3, 3, seed=4), trials=10, seed=0)
    assert report.passed
    assert report.trials == 10
    assert report.max_inclusion_residual <= 1e-9 * report.scale


def test_image_inclusion_on_rank_deficient_image():
    # rank-1 conjugation: Phi(a) lives on a single ray for every a
    v = random_rank_operator(3, 3, 1, seed=5)
    report = check_image_inclusion(from_conjugation(v, transposed=True), trials=10, seed=0)
    assert report.passed


def test_image_inclusion_rejects_zero_trials():
    with pytest.raises(ValueError):
        check_image_inclusion(random_cp_map(2, 2, seed=0), trials=0)
