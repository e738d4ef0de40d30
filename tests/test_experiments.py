import sys
from pathlib import Path

import numpy as np
import pytest

from mapcert.errors import RankInfeasible, ZeroOperator
from mapcert.experiments import (
    BOTH_RULES,
    INPUT_RULE,
    brute_force_strong_dim_oracle,
    candidate_dims,
    check_image_inclusion,
    random_cp_map,
    random_kraus_operators,
    random_rank_operator,
    run_dimension_sweep,
    run_rank2_count_check,
    sweep_cells,
)
from mapcert.linalg import numerical_rank
from mapcert.maps import from_conjugation, is_completely_positive


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
    assert is_completely_positive(phi)
    again = random_cp_map(2, 3, seed=1)
    assert np.array_equal(phi.choi, again.choi)
    with pytest.raises(ValueError):
        random_kraus_operators(2, 2, 0)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_rank2_count_matches_closed_form(m):
    report = run_rank2_count_check(m, seed=0)
    assert report.measured_strong_dim == 4 * m - 2
    assert report.agrees_with in (INPUT_RULE, BOTH_RULES)


def test_rank2_count_rejects_small_m():
    with pytest.raises(RankInfeasible):
        run_rank2_count_check(1)


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


def test_oracle_agrees_with_analytic_routes():
    v = random_rank_operator(2, 3, 2, seed=8)
    report = run_dimension_sweep(2, 3, 2, seed=8)
    assert brute_force_strong_dim_oracle(v, seed=0) == report.measured_strong_dim


@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_gives_the_input_rule_on_every_default_cell(seed):
    wrong = []
    for n, m, r in sweep_cells():
        v = random_rank_operator(n, m, r, seed=seed)
        dim = brute_force_strong_dim_oracle(v, seed=seed)
        if dim != candidate_dims(n, m, r)[0]:
            wrong.append((n, m, r, dim))
    assert wrong == []


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
