import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mapcert.errors import DimensionMismatch, KernelInclusionViolated
from mapcert.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _kept_eigenvalues,
    _norm,
    _rank_from_eigenvalues,
    _row_kernels,
    as_matrix,
    image_projector,
    kernel_basis,
    kernel_inclusion_factor,
    numerical_rank,
    span_dimension,
)


def ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_tolerance_defaults_and_scaling():
    tol = ToleranceConfig()
    assert tol.rank_rel_tol == 1e-8
    assert tol.residual_rel_tol == 1e-9
    assert tol.convergence_tol == 1e-12
    assert tol.max_iters == 500
    weaker = tol.scaled(10)
    assert weaker.rank_rel_tol == pytest.approx(1e-7)
    # only the rank threshold moves
    assert weaker.residual_rel_tol == tol.residual_rel_tol
    assert weaker.convergence_tol == tol.convergence_tol


@pytest.mark.parametrize("bad", [0.0, -1e-8, float("inf"), float("nan"), 1.0, 2.0])
def test_tolerance_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rel_tol=bad)


@pytest.mark.parametrize("field", ["residual_rel_tol", "convergence_tol", "max_iters"])
def test_tolerance_fixes_all_but_the_rank_threshold(field):
    with pytest.raises(TypeError):
        ToleranceConfig(**{field: 1})


def test_as_matrix_accepts_nested_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == complex
    assert m.shape == (2, 2)


def test_as_matrix_rejects_non_2d():
    with pytest.raises((DimensionMismatch, ValueError)):
        as_matrix([1, 2, 3])


@pytest.mark.parametrize("rows,cols,rank", [(4, 4, 2), (3, 5, 1), (6, 4, 4), (5, 5, 5)])
def test_numerical_rank_on_constructed_matrices(rows, cols, rank):
    rng = np.random.default_rng(rank)
    m = ginibre(rng, rows, rank) @ ginibre(rng, rank, cols)
    assert numerical_rank(m) == rank


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((3, 3))) == 0


@pytest.mark.parametrize(
    "w, kept",
    [([0.0, 0.0, 0.0], [False, False, False]), ([-5.0, -1e-10, 1e-9, 1e-7, 2.0], [True, False, False, True, True])],
    ids=["all-zero", "mixed-sign"],
)
def test_eigenvalue_rank_cuts_the_moduli_as_the_singular_value_rank(w, kept):
    # ascending eigenvalues, as eigh returns them: the largest modulus may come first
    w = np.array(w)
    assert _kept_eigenvalues(w, DEFAULT_TOL).tolist() == kept
    assert _rank_from_eigenvalues(w, DEFAULT_TOL) == sum(kept) == numerical_rank(np.diag(w))


def test_kernel_basis_spans_the_kernel():
    rng = np.random.default_rng(1)
    m = ginibre(rng, 4, 2) @ ginibre(rng, 2, 6)
    k = kernel_basis(m)
    assert k.shape == (6, 4)
    assert np.linalg.norm(m @ k) < 1e-10
    assert np.allclose(k.conj().T @ k, np.eye(4))


@pytest.mark.parametrize(
    "rows,cols,rank",
    [(400, 12, 7), (400, 12, 12), (1, 9, 1), (9, 9, 4), (9, 9, 9)],
    ids=["tall-deficient", "tall-full", "wide-row", "square-deficient", "square-full"],
)
def test_kernel_basis_shapes(rows, cols, rank):
    rng = np.random.default_rng(rows + cols + rank)
    m = ginibre(rng, rows, rank) @ ginibre(rng, rank, cols)
    k = kernel_basis(m)
    assert k.shape == (cols, cols - rank)
    assert np.allclose(k.conj().T @ k, np.eye(cols - rank))
    assert np.linalg.norm(m @ k) <= 1e-10 * np.linalg.norm(m, 2)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), rows=st.integers(1, 6), cols=st.integers(1, 6))
def test_kernel_inclusion_factor_of_m_by_itself_is_its_image_projector(seed, rows, cols):
    # X = M M^+, so the Penrose identities M M^+ M = M and (M M^+)^H = M M^+
    # read X M = M and X^H = X, and X^2 = X follows
    rng = np.random.default_rng(seed)
    m = ginibre(rng, rows, cols)
    x = kernel_inclusion_factor(m, m)
    assert np.allclose(x @ m, m, atol=1e-9)
    assert np.allclose(x @ x, x, atol=1e-9)
    assert np.allclose(x.conj().T, x, atol=1e-9)


def test_image_projector_properties():
    rng = np.random.default_rng(2)
    m = ginibre(rng, 5, 3) @ ginibre(rng, 3, 4)
    p = image_projector(m)
    assert np.allclose(p @ p, p)
    assert np.allclose(p.conj().T, p)
    assert np.allclose(p @ m, m)
    assert numerical_rank(p) == 3


def test_kernel_inclusion_factor_recovers_factor():
    rng = np.random.default_rng(3)
    b = ginibre(rng, 4, 5)
    c = ginibre(rng, 4, 4)
    a = c @ b
    x = kernel_inclusion_factor(a, b)
    assert np.linalg.norm(a - x @ b) / np.linalg.norm(a, 2) < 1e-10
    assert numerical_rank(x) == numerical_rank(a)


def test_kernel_inclusion_factor_rank_deficient_b():
    rng = np.random.default_rng(4)
    b = ginibre(rng, 5, 2) @ ginibre(rng, 2, 5)
    a = ginibre(rng, 5, 5) @ b
    x = kernel_inclusion_factor(a, b)
    assert np.linalg.norm(a - x @ b) / np.linalg.norm(a, 2) < 1e-9


def test_kernel_inclusion_factor_detects_violation():
    # ker B not inside ker A: B kills e2, A does not
    a = np.eye(2)
    b = np.diag([1.0, 0.0])
    with pytest.raises(KernelInclusionViolated) as exc:
        kernel_inclusion_factor(a, b)
    assert exc.value.worst_residual > 0.1


def test_kernel_inclusion_factor_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        kernel_inclusion_factor(np.eye(2), np.eye(3))


def test_span_dimension_basic():
    e1 = np.array([1, 0, 0], dtype=complex)
    e2 = np.array([0, 1, 0], dtype=complex)
    assert span_dimension(np.empty((3, 0), dtype=complex)) == 0
    assert span_dimension(np.column_stack([e1, e2, e1 + e2])) == 2
    assert span_dimension(np.zeros((3, 1), dtype=complex)) == 0


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.01, 100.0))
def test_span_dimension_scale_and_order_invariant(seed, scale):
    rng = np.random.default_rng(seed)
    vectors = np.column_stack([ginibre(rng, 1, 5).ravel() for _ in range(4)])
    base = span_dimension(vectors)
    assert span_dimension(scale * vectors) == base
    assert span_dimension(vectors[:, ::-1]) == base


def check_row_kernel(row, kernel):
    """The contract of a non-free row's kernel: m - 1 orthonormal columns that the row annihilates,
    spanning what ``kernel_basis`` spans."""
    m = row.shape[0]
    assert kernel.shape == (m, m - 1)
    assert np.linalg.norm(kernel.conj().T @ kernel - np.eye(m - 1)) <= 1e-14
    assert np.linalg.norm(row @ kernel) <= 1e-14 * np.linalg.norm(row)
    basis = kernel_basis(row[None], DEFAULT_TOL)
    assert np.linalg.norm(kernel @ kernel.conj().T - basis @ basis.conj().T) <= 1e-13


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_row_kernels_free_rows_are_all_of_c_m_and_others_their_kernel(m):
    rng = np.random.default_rng(m)
    rows = ginibre(rng, 9, m)
    rows[[1, 4]] = 1e-12 * rows[[1, 4]]  # free at ref 1: all of C^m
    rows[6] = 0.0
    kernels = _row_kernels(rows[:, None], 1.0, DEFAULT_TOL)
    assert len(kernels) == 9
    for i, kernel in enumerate(kernels):
        if i in (1, 4, 6):
            assert np.array_equal(kernel, np.eye(m))
        else:
            check_row_kernel(rows[i], kernel)


EDGE_ROWS = {
    "leading-zero": [0.0, 1 - 2j, 0.5j, 3.0],
    "e1": [1.0, 0.0, 0.0, 0.0],
    "em": [0.0, 0.0, 0.0, 1.0],
    "imaginary": [1j, -2j, 0.25j, 3j],
}


@pytest.mark.parametrize("scale", [1.0, 1e45, 1e-45])
@pytest.mark.parametrize("name", EDGE_ROWS)
def test_row_kernels_of_edge_rows(name, scale):
    # the reflector's phase is 1 where the leading entry is 0; the row and ref scale together
    row = scale * np.array(EDGE_ROWS[name], dtype=complex)
    [kernel] = _row_kernels(row[None, None], scale, DEFAULT_TOL)
    check_row_kernel(row, kernel)


@settings(deadline=None, max_examples=50)
@given(rows=arrays(complex, st.tuples(st.integers(1, 4), st.integers(1, 6)), elements=st.one_of(
    st.just(0j), st.complex_numbers(min_magnitude=1e-100, max_magnitude=1e100, allow_nan=False, allow_infinity=False))))
def test_row_kernels_meet_their_contract_on_random_rows(rows):
    norms = np.linalg.norm(rows, axis=1)
    ref = float(norms.max())
    assume(ref > 0)
    for row, norm, kernel in zip(rows, norms, _row_kernels(rows[:, None], ref, DEFAULT_TOL)):
        if norm <= DEFAULT_TOL.rank_rel_tol * ref:
            assert np.array_equal(kernel, np.eye(rows.shape[1]))
        else:
            check_row_kernel(row, kernel)


def test_row_kernels_of_an_all_free_stack():
    rows = np.zeros((3, 4), dtype=complex)
    rows[0, 0] = 1e-9
    kernels = _row_kernels(rows[:, None], 1.0, DEFAULT_TOL)
    assert len(kernels) == 3
    assert all(np.array_equal(kernel, np.eye(4)) for kernel in kernels)
    assert _row_kernels(rows[:0, None], 1.0, DEFAULT_TOL) == []


@st.composite
def complex_vectors(draw):
    """A complex 1-d array of length 0-300, all zero or of drawn entries, contiguous or a strided view."""
    length, step = draw(st.integers(0, 300)), draw(st.sampled_from([1, 2, 3, -1, -2]))
    entries = st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False)
    base = draw(st.one_of(st.just(np.zeros(length * abs(step), dtype=complex)),
                          arrays(complex, length * abs(step), elements=entries)))
    return base[::step]


@settings(deadline=None, max_examples=300)
@given(v=complex_vectors())
def test_norm_is_numpys_norm_bitwise(v):
    assert np.float64(_norm(v)).tobytes() == np.linalg.norm(v).tobytes()
