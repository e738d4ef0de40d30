import sys
import threading
import warnings

import numpy as np
import pytest

from mapcert.errors import DimensionMismatch, ZeroMap, ZeroOperator
from mapcert.linalg import DEFAULT_TOL, numerical_rank
from mapcert.maps import (
    MapOperator,
    _from_blocks,
    apply,
    choi_spectral_scale,
    cp_map_from_kraus,
    dephasing_map,
    from_conjugation,
    identity_map,
    is_completely_positive,
    is_positive_heuristic,
    trace_map,
    transpose_map,
    unital_normalization,
)


def from_image_list(images, n, m):
    """The map whose images Phi(E_ij) are ``images``, row-major in (i, j)."""
    return _from_blocks(np.array(images).reshape(n, n, m, m).transpose(0, 2, 1, 3))


def ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng, n):
    g = ginibre(rng, n, n)
    return g + g.conj().T


def test_canonical_maps_act_correctly():
    rng = np.random.default_rng(0)
    a = random_hermitian(rng, 3)
    assert np.allclose(apply(identity_map(3), a), a)
    assert np.allclose(apply(transpose_map(3), a), a.T)
    assert np.allclose(apply(trace_map(3), a), np.trace(a) * np.eye(3))
    assert np.allclose(apply(dephasing_map(3), a), np.diag(np.diag(a)))
    assert np.array_equal(trace_map(2, 3).choi, np.eye(6))


def test_apply_is_linear():
    rng = np.random.default_rng(1)
    phi = transpose_map(2)
    a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
    assert np.allclose(
        apply(phi, 2 * a + 1j * b), 2 * apply(phi, a) + 1j * apply(phi, b)
    )


def test_from_apply_table_round_trips():
    # the images Phi(E_ij) of a conjugation, evaluated, are V^H E_ij V
    rng = np.random.default_rng(2)
    v = ginibre(rng, 2, 3)
    phi = from_conjugation(v)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            assert np.allclose(apply(phi, e), v.conj().T @ e @ v)


def test_constructors_match_the_image_table():
    # the reference construction: every image Phi(E_ij) as np.outer products,
    # laid out as blocks[i, k, j, l] = Phi(E_ij)[k, l]; equal bit for bit,
    # signed zeros included
    rng = np.random.default_rng(8)
    for n in range(1, 6):
        for m in range(1, 6):
            v = ginibre(rng, n, m)
            v[rng.random((n, m)) < 0.3] = -0.0
            v[0, 0] = 1.0
            for transposed in (False, True):
                images = [
                    np.outer(v[j].conj(), v[i]) if transposed else np.outer(v[i].conj(), v[j])
                    for i in range(n)
                    for j in range(n)
                ]
                expected = from_image_list(images, n, m).choi
                assert from_conjugation(v, transposed=transposed).choi.tobytes() == expected.tobytes()
            for count in range(1, 5):
                kraus = [ginibre(rng, m, n) for _ in range(count)]
                images = [
                    sum(np.outer(k[:, i], k[:, j].conj()) for k in kraus) for i in range(n) for j in range(n)
                ]
                expected = from_image_list(images, n, m).choi
                assert cp_map_from_kraus(kraus).choi.tobytes() == expected.tobytes()


@pytest.mark.parametrize("transposed", [False, True])
def test_from_conjugation_matches_direct_formula(transposed):
    rng = np.random.default_rng(3)
    v = ginibre(rng, 3, 4)
    phi = from_conjugation(v, transposed=transposed)
    a = random_hermitian(rng, 3)
    expected = v.conj().T @ (a.T if transposed else a) @ v
    assert np.allclose(apply(phi, a), expected)
    assert (phi.dim_in, phi.dim_out) == (3, 4)


def test_from_conjugation_rejects_zero():
    with pytest.raises(ZeroOperator):
        from_conjugation(np.zeros((2, 2)))


def test_map_operator_validates_shape_and_hermiticity():
    with pytest.raises(DimensionMismatch):
        MapOperator(2, 2, np.eye(3, dtype=complex))
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError):
        MapOperator(2, 2, skew)


def test_map_operator_hermiticity_rule_does_not_overflow():
    # 1e200 times the identity plus one off-diagonal 1: its norms overflow to
    # inf unless taken after dividing by the largest entry, and inf <= 1e-9 * inf
    # would accept it
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            MapOperator(2, 2, 1e200 * m)
        m[1, 0] = 1.0
        assert MapOperator(2, 2, 1e200 * m).dim_in == 2
        assert MapOperator(2, 2, np.zeros((4, 4))).dim_in == 2


def test_map_operator_choi_is_read_only():
    phi = identity_map(2)
    with pytest.raises(ValueError):
        phi.choi[0, 0] = 5.0


def test_adjoint_map_trace_pairing():
    rng = np.random.default_rng(4)
    v = ginibre(rng, 2, 3)
    phi = from_conjugation(v, transposed=True)
    assert phi._adjoint.shape == (3, 2, 3, 2) and phi._adjoint.flags.c_contiguous
    assert not phi._adjoint.flags.writeable
    adj = MapOperator(3, 2, phi._adjoint.reshape(6, 6))
    for _ in range(5):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        lhs = np.trace(b.conj().T @ apply(phi, a))
        rhs = np.trace(apply(adj, b).conj().T @ a)
        assert lhs == pytest.approx(rhs)


def test_memoized_adjoint_and_scale_under_racing_threads():
    # Many threads hit a fresh map's first use at once: each sees the
    # adjoint and scale that a single caller would, and later calls share one.
    rng = np.random.default_rng(6)
    v = ginibre(rng, 3, 4)
    expected_adj = from_conjugation(v)._adjoint
    expected_scale = choi_spectral_scale(from_conjugation(v))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            phi = from_conjugation(v)
            seen = []
            start = threading.Barrier(16)

            def first_use(phi=phi, seen=seen, start=start):
                start.wait(timeout=10)
                seen.append((phi._adjoint, choi_spectral_scale(phi)))

            threads = [threading.Thread(target=first_use) for _ in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(seen) == 16
            assert all(np.array_equal(a, expected_adj) and s == expected_scale for a, s in seen)
            assert phi._adjoint is phi._adjoint
    finally:
        sys.setswitchinterval(switch)


def test_adjoint_is_an_involution():
    rng = np.random.default_rng(5)
    phi = from_conjugation(ginibre(rng, 2, 4))
    again = MapOperator(4, 2, phi._adjoint.reshape(8, 8))._adjoint
    assert np.allclose(again.reshape(8, 8), phi.choi)


def test_unital_normalization_reconstructs():
    rng = np.random.default_rng(6)
    v = ginibre(rng, 2, 3)
    phi = from_conjugation(v, transposed=True)
    nf = unital_normalization(phi)
    assert nf.image_dim == 2
    unit = apply(nf.unital_part, np.eye(2, dtype=complex))
    assert np.allclose(unit, np.eye(nf.image_dim))
    for _ in range(4):
        a = random_hermitian(rng, 2)
        rebuilt = nf.bridge.conj().T @ apply(nf.unital_part, a) @ nf.bridge
        assert np.allclose(rebuilt, apply(phi, a))


def test_unital_normalization_rejects_zero_unit_image():
    # a map with Phi(1) = 0 cannot be normalized; build one from the
    # difference structure of a Hermitian but trace-free perturbation
    choi = np.zeros((4, 4), dtype=complex)
    choi[0, 3] = choi[3, 0] = 1.0
    phi = MapOperator(2, 2, choi)
    with pytest.raises(ZeroMap):
        unital_normalization(phi)


def test_cp_map_from_kraus_matches_sum():
    rng = np.random.default_rng(7)
    kraus = [ginibre(rng, 3, 2) for _ in range(3)]
    phi = cp_map_from_kraus(kraus)
    a = random_hermitian(rng, 2)
    expected = sum(k @ a @ k.conj().T for k in kraus)
    assert np.allclose(apply(phi, a), expected)
    assert is_completely_positive(phi)


def test_cp_map_from_kraus_validates():
    with pytest.raises(ValueError):
        cp_map_from_kraus([])
    with pytest.raises(DimensionMismatch):
        cp_map_from_kraus([np.eye(2), np.eye(3)])


def test_complete_positivity_verdicts():
    assert is_completely_positive(identity_map(2))
    assert is_completely_positive(trace_map(2))
    assert not is_completely_positive(transpose_map(2))


def test_positivity_heuristic_passes_positive_maps():
    for phi in (identity_map(2), transpose_map(3), trace_map(2), dephasing_map(3)):
        report = is_positive_heuristic(phi, seed=0)
        assert report.passed, report.worst_value
        assert report.worst_value >= -1e-9 * choi_spectral_scale(phi)


def test_positivity_heuristic_catches_violations():
    choi = np.diag([1.0, -1.0, 1.0, 1.0]).astype(complex)
    phi = MapOperator(2, 2, choi)
    report = is_positive_heuristic(phi, seed=0)
    assert not report.passed
    assert report.worst_value < -0.5
    assert report.worst_vector is not None


def test_positivity_heuristic_deterministic():
    phi = transpose_map(2)
    r1 = is_positive_heuristic(phi, seed=5)
    r2 = is_positive_heuristic(phi, seed=5)
    assert r1.worst_value == r2.worst_value
