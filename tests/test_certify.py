import json
import sys
from pathlib import Path

import numpy as np
import pytest

import mapcert.certify
import mapcert.maps
from mapcert.certify import (
    _commutant_system,
    CERTIFIED,
    EXPOSED,
    INCONCLUSIVE,
    OPTIMAL,
    Certificate,
    certify_exposed,
    certify_optimal,
    commutant_basis,
    exposedness_functional,
    intertwiner_space,
)
from mapcert.documents import parse_map_file, to_map_operator
from mapcert.errors import CrossCheckError, DimensionMismatch, EmptyZeroSet
from mapcert.experiments import random_cp_map, random_rank_operator, sweep_cells
from mapcert.linalg import ToleranceConfig, image_projector, span_dimension
from mapcert.maps import (
    apply,
    cp_map_from_kraus,
    dephasing_map,
    from_conjugation,
    identity_map,
    trace_map,
    transpose_map,
)
from mapcert.zeros import ZeroPair, ZeroSet, analytic_zeros_conjugation, find_zeros, harvest_zeros


def ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


# 2 x 3 operators of rank 2 and rank 1
RANK_TWO = ginibre(np.random.default_rng(8), 2, 3)
RANK_ONE = ginibre(np.random.default_rng(9), 2, 1) @ ginibre(np.random.default_rng(10), 1, 3)


def matrix_units(n):
    """E_ij, row-major in (i, j)."""
    units = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    return units


@pytest.mark.parametrize(
    "phi,dim",
    [
        (identity_map(2), 1),
        (transpose_map(3), 1),
        (dephasing_map(2), 2),
        (dephasing_map(3), 3),
        (trace_map(2), 4),
        (from_conjugation(RANK_TWO, transposed=True), 2),
        (from_conjugation(RANK_ONE, transposed=True), 5),
    ],
)
def test_commutant_dimensions(phi, dim):
    assert len(commutant_basis(phi)) == dim


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (2, 3), (3, 5), (4, 8)])
def test_commutant_system_equals_kron_form_bitwise(n, m):
    phi = cp_map_from_kraus([ginibre(np.random.default_rng([n, m, k]), m, n) for k in range(2)])
    eye = np.eye(m, dtype=complex)
    expected = np.vstack(
        [
            np.kron(g, eye) - np.kron(eye, g.T)
            for g in (apply(phi, e) for e in matrix_units(n))
        ]
    )
    assert np.array_equal(_commutant_system(mapcert.maps._image_table(phi)), expected)


def test_commutant_contains_identity_direction():
    basis = commutant_basis(dephasing_map(3))
    stacked = np.column_stack([b.ravel() for b in basis])
    eye = np.eye(3, dtype=complex).ravel()
    # projecting the identity onto the span loses nothing
    proj = stacked @ np.linalg.lstsq(stacked, eye, rcond=None)[0]
    assert np.allclose(proj, eye)


def test_commutant_elements_commute_with_image():
    phi = dephasing_map(3)
    for x in commutant_basis(phi):
        for e in matrix_units(3):
            g = apply(phi, e)
            assert np.linalg.norm(g @ x - x @ g) < 1e-9


def irreducible_on_image(phi):
    """The flag certify_exposed reports, here from an empty zero set."""
    return certify_exposed(phi, ZeroSet(phi.dim_in, phi.dim_out, [], True)).irreducible_on_image


def test_irreducibility_verdicts():
    assert len(commutant_basis(identity_map(2))) == 1
    assert len(commutant_basis(dephasing_map(2))) != 1
    assert len(commutant_basis(trace_map(2))) != 1


def test_irreducible_on_image_for_thin_conjugation():
    # rank-2 V into a larger algebra: reducible globally, irreducible there
    rng = np.random.default_rng(4)
    phi = from_conjugation(ginibre(rng, 2, 3), transposed=True)
    assert len(commutant_basis(phi)) != 1
    assert irreducible_on_image(phi)


def direct_sum_blocks():
    """Block array of a -> a^T (+) a^T, from M_2 into M_4: unital, reducible."""
    base = from_conjugation(np.eye(2), transposed=True)
    images = []
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            block = np.zeros((4, 4), dtype=complex)
            block[:2, :2] = apply(base, e)
            block[2:, 2:] = apply(base, e)
            images.append(block)
    return np.array(images).reshape(2, 2, 4, 4).transpose(0, 2, 1, 3)


def test_direct_sum_is_reducible_even_on_image():
    phi = mapcert.maps._from_blocks(direct_sum_blocks())
    assert len(commutant_basis(phi)) != 1
    assert not irreducible_on_image(phi)


@pytest.mark.parametrize("eps", [0.0, 1e-7])
def test_commutant_svd_decides_below_the_gram_screen(eps, monkeypatch):
    # eps = 0: the exact direct sum, whose commutant is M_2 (x) 1.  eps = 1e-7:
    # plus a small irreducible CP map, which leaves the commutant's second
    # singular value between rank_rel_tol and the screen's gate, so only the
    # SVD can count it
    rng = np.random.default_rng(3)
    noise = cp_map_from_kraus([ginibre(rng, 4, 2) for _ in range(2)])
    phi = mapcert.maps._from_blocks(direct_sum_blocks() + eps * noise.choi.reshape(2, 4, 2, 4))
    solves = []
    kernel_basis = mapcert.certify.kernel_basis
    monkeypatch.setattr(mapcert.certify, "kernel_basis", lambda *a: solves.append(a) or kernel_basis(*a))
    cert = certify_exposed(phi, ZeroSet(2, 4, [], True))
    assert len(solves) == 1
    monkeypatch.undo()
    assert cert.irreducible_on_image == cert.irreducible == (len(commutant_basis(phi)) == 1) == (eps > 0)


def test_zero_unit_image_is_reducible():
    # Phi(a) = tr(a sigma_z) sigma_x: Hermiticity preserving, with Phi(1) = 0
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    blocks = np.zeros((2, 2, 2, 2), dtype=complex)
    blocks[0, :, 0, :], blocks[1, :, 1, :] = sigma_x, -sigma_x
    cert = certify_exposed(mapcert.maps._from_blocks(blocks), ZeroSet(2, 2, [], True))
    assert (cert.irreducible, cert.irreducible_on_image) == (False, False)
    assert cert.required_dim == 8


def benchmark_maps():
    """The map of each perfbench analyze-mixed entry except negated-cp, and of
    each analyze-large entry, at seeds 1 and 2: 52 maps."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    specs = [spec for spec in workloads.MIXED + workloads.LARGE if spec[0] != "negated-cp"]
    for seed in (1, 2):
        for index, spec in enumerate(specs):
            document = workloads.make_document(np.random.default_rng([seed, index]), *spec)
            yield spec, to_map_operator(parse_map_file(json.dumps(document)))


def test_irreducibility_flags_agree_with_the_full_commutant_on_the_benchmark_maps():
    # the reference rule: the commutant of the whole map on M_m, its basis
    # compressed by the projector onto the image of Phi(1)
    checked = 0
    for spec, phi in benchmark_maps():
        basis = commutant_basis(phi)
        p = image_projector(apply(phi, np.eye(phi.dim_in)))
        on_image = span_dimension(np.column_stack([(p @ x @ p).ravel() for x in basis])) == 1
        cert = certify_exposed(phi, ZeroSet(phi.dim_in, phi.dim_out, [], True))
        assert (cert.irreducible, cert.irreducible_on_image) == (len(basis) == 1, on_image), spec
        checked += 1
    assert checked == 52


@pytest.mark.parametrize(
    "phi,dim",
    [
        (identity_map(2), 1),
        (identity_map(3), 1),
        (transpose_map(2), 1),
        (dephasing_map(2), 2),
        # non-unital and rectangular; the dimensions follow from block algebra
        (trace_map(2, 3), 9),
        # rank-2 V: a real scalar on range V^H (1), the free 2x1 corner (4)
        # and the free 1x1 block (2)
        (from_conjugation(RANK_TWO, transposed=True), 7),
        (from_conjugation(RANK_ONE, transposed=True), 13),
    ],
)
def test_intertwiner_real_dimension(phi, dim):
    assert intertwiner_space(phi).real_dimension == dim


def test_irreducibility_systems_evaluate_no_map(monkeypatch):
    # both systems read the map's image table instead of evaluating the map
    calls = []
    evaluate = mapcert.maps.apply

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    for module in (mapcert.maps, mapcert.certify):
        monkeypatch.setattr(module, "apply", counted)
    phi = from_conjugation(RANK_TWO, transposed=True)
    assert len(commutant_basis(phi)) == 2
    assert intertwiner_space(phi).real_dimension == 7
    assert calls == []


def test_intertwiner_basis_solves_the_relation():
    phi = dephasing_map(2)
    space = intertwiner_space(phi)
    for x in space.basis:
        for e in matrix_units(2):
            g = apply(phi, e)
            assert np.linalg.norm(x @ g - g @ x.conj().T) < 1e-9


def test_certificates_for_transpose_map():
    phi = transpose_map(2)
    zs = analytic_zeros_conjugation(np.eye(2), transposed=True)
    optimal = certify_optimal(phi, zs)
    assert optimal.verdict == CERTIFIED
    assert (optimal.measured_dim, optimal.required_dim) == (4, 4)
    exposed = certify_exposed(phi, zs)
    assert exposed.verdict == CERTIFIED
    assert (exposed.measured_dim, exposed.required_dim) == (6, 6)
    assert exposed.irreducible_on_image


def test_certificates_for_identity_map():
    phi = identity_map(2)
    zs = analytic_zeros_conjugation(np.eye(2), transposed=False)
    exposed = certify_exposed(phi, zs)
    assert exposed.verdict == CERTIFIED
    # the identity map is completely positive, so the optimality condition
    # must not hold: its weak span stops one short
    optimal = certify_optimal(phi, zs)
    assert optimal.verdict == INCONCLUSIVE
    assert (optimal.measured_dim, optimal.required_dim) == (3, 4)


def test_certificates_for_trace_map():
    phi = trace_map(2)
    zs = harvest_zeros(phi, seed=0)
    assert certify_optimal(phi, zs).verdict == INCONCLUSIVE
    exposed = certify_exposed(phi, zs)
    assert exposed.verdict == INCONCLUSIVE
    assert exposed.measured_dim == 0


def test_rank_deficient_conjugation_stays_inconclusive():
    rng = np.random.default_rng(5)
    v = np.outer(ginibre(rng, 2, 1), ginibre(rng, 1, 2))
    phi = from_conjugation(v, transposed=True)
    zs = analytic_zeros_conjugation(v, transposed=True)
    exposed = certify_exposed(phi, zs)
    assert exposed.verdict == INCONCLUSIVE
    assert exposed.measured_dim == 5
    assert exposed.required_dim == 7
    assert exposed.irreducible_on_image
    assert "rank deficient" in exposed.conditional_note


def test_certificate_monotone_under_more_pairs():
    phi = from_conjugation(np.eye(2), transposed=True)
    small = harvest_zeros(phi, seed=0, starts=6)
    large = harvest_zeros(phi, seed=0, starts=200)
    if certify_exposed(phi, small).certified:
        assert certify_exposed(phi, large).certified


def test_certificate_invariants_enforced():
    with pytest.raises(ValueError):
        Certificate(
            claim=OPTIMAL,
            verdict=CERTIFIED,
            measured_dim=3,
            required_dim=4,
            irreducible_on_image=None,
            conditional_note="",
        )
    with pytest.raises(ValueError):
        Certificate(
            claim=EXPOSED,
            verdict=INCONCLUSIVE,
            measured_dim=7,
            required_dim=6,
            irreducible_on_image=True,
            conditional_note="",
        )


def test_exposed_cross_check_on_impossible_zero_set():
    # seven independent strong vectors cannot be genuine for a map whose
    # kernel ceiling is six; certify_exposed must refuse rather than certify
    phi = trace_map(2)
    rng = np.random.default_rng(6)
    pairs = []
    for _ in range(7):
        x = ginibre(rng, 1, 2).ravel()
        h = ginibre(rng, 1, 2).ravel()
        pairs.append(ZeroPair(x=x / np.linalg.norm(x), h=h / np.linalg.norm(h), residual=0.0))
    fake = ZeroSet(2, 2, pairs, saturated=False)
    with pytest.raises(CrossCheckError):
        certify_exposed(phi, fake)


@pytest.mark.parametrize("phi,ceiling", [(identity_map(2), 3), (trace_map(2), 0)])
def test_optimal_cross_check_on_a_weak_span_above_the_cp_ceiling(phi, ceiling):
    # a genuine zero of a CP map has C (x (x) h) = 0, so its weak span is at
    # most nm - rank C; four random pairs span all of C^4 and must be refused
    rng = np.random.default_rng(8)
    pairs = []
    for _ in range(4):
        x, h = ginibre(rng, 1, 2).ravel(), ginibre(rng, 1, 2).ravel()
        pairs.append(ZeroPair(x=x / np.linalg.norm(x), h=h / np.linalg.norm(h), residual=0.0))
    fake = ZeroSet(2, 2, pairs, saturated=False)
    with pytest.raises(CrossCheckError, match=f"weak span 4 exceeds the weak ceiling {ceiling} "):
        certify_optimal(phi, fake)
    # the transpose map is not CP: no ceiling applies, and the full span certifies
    assert certify_optimal(transpose_map(2), fake).certified


def test_exposed_cross_check_on_a_strong_span_above_the_cp_ceiling():
    # a genuine zero of a CP map has x (x) h in ker C, so its strong vector lies in
    # C^n (x) ker C, of dimension n (nm - rank C): 0 for the trace map, whose kernel
    # ceiling n^2 m - rank Phi(1) is 6
    rng = np.random.default_rng(9)
    pairs = []
    for _ in range(3):
        x, h = ginibre(rng, 1, 2).ravel(), ginibre(rng, 1, 2).ravel()
        pairs.append(ZeroPair(x=x / np.linalg.norm(x), h=h / np.linalg.norm(h), residual=0.0))
    fake = ZeroSet(2, 2, pairs, saturated=False)
    with pytest.raises(CrossCheckError, match=r"strong span 3 exceeds the strong ceiling 0 = n\(nm - rank C\) "):
        certify_exposed(trace_map(2), fake)
    # the harvest on three Kraus operators on 3x3 admits inexact pairs: strong 23-24 against 18
    phi = random_cp_map(3, 3, 3, seed=5)
    with pytest.raises(CrossCheckError, match="exceeds the strong ceiling 18 "):
        certify_exposed(phi, harvest_zeros(phi, seed=0))


def partial_transpose(phi):
    """The map a -> Phi(a^T): its block matrix is the partial transpose of Phi's."""
    n, m = phi.dim_in, phi.dim_out
    return mapcert.maps.MapOperator(n, m, phi.choi.reshape(n, m, n, m).transpose(2, 1, 0, 3).reshape(n * m, n * m))


def test_exposed_cross_check_on_a_strong_span_above_the_co_cp_ceiling():
    # Phi(a) = Psi(a^T) for a CP map Psi: the partial transpose of C is Psi's block matrix, and
    # Phi's strong vectors are Psi's with the first two factors swapped, so the span is at most
    # n (nm - rank C^G) = 18 for three Kraus operators on 3x3; the harvest's inexact pairs span 24
    phi = partial_transpose(random_cp_map(3, 3, 3, seed=4))
    assert mapcert.maps._cp_rank(phi) is None and mapcert.maps._cp_rank(phi, transposed=True) == 3
    with pytest.raises(CrossCheckError, match=r"strong span 24 exceeds the strong ceiling 18 = n\(nm - rank C\^G\) of a co-CP map"):
        certify_exposed(phi, harvest_zeros(phi, seed=0))
    # the transpose map is co-CP with rank C^G = 1: its exact zeros fill the ceiling n (nm - 1) = 6
    assert certify_exposed(transpose_map(2), analytic_zeros_conjugation(np.eye(2), transposed=True)).certified


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n, m, k", [(2, 4, 2), (2, 5, 2), (3, 6, 2)])
def test_a_cp_or_co_cp_map_of_rank_two_is_never_certified_exposed(n, m, k, seed):
    # Phi = Phi_1 + Phi_2 with Phi_s = K_s . K_s^H is not extremal, so not exposed.  At nk <= m its
    # strong span still fills the kernel ceiling, and only irreducibility of the unital normal form,
    # which agrees with a one-dimensional intertwiner space, withholds the certificate
    cp = random_cp_map(n, m, k, seed=seed)
    for phi in (cp, partial_transpose(cp)):
        cert = certify_exposed(phi, find_zeros(phi))
        assert cert.measured_dim == cert.required_dim and cert.verdict == INCONCLUSIVE
        assert cert.irreducible == cert.irreducible_on_image == (intertwiner_space(phi).real_dimension == 1) == False


@pytest.mark.parametrize("transposed", [True, False])
def test_irreducibility_agrees_with_the_intertwiner_space_on_the_sweep_cells(transposed):
    for n, m, r in sweep_cells():
        v = random_rank_operator(n, m, r, seed=0)
        phi = from_conjugation(v, transposed=transposed)
        cert = certify_exposed(phi, analytic_zeros_conjugation(v, transposed=transposed))
        assert cert.irreducible == (intertwiner_space(phi).real_dimension == 1), (n, m, r)


def test_exposed_cross_check_on_a_certificate_for_a_cp_map_of_rank_two(monkeypatch):
    # a regression in the irreducibility test must not certify a map its Choi spectrum proves not extremal
    phi = random_cp_map(2, 4, 2, seed=0)
    zs = find_zeros(phi)
    monkeypatch.setattr(mapcert.certify, "_irreducible_on_image", lambda g, tol: True)
    with pytest.raises(CrossCheckError, match="not extremal"):
        certify_exposed(phi, zs)


def test_a_negative_eigenvalue_of_the_unit_image_claims_no_irreducibility():
    # a -> -a^T sends 1 to -1, so it is not positive and has no unital normal form: the strong span
    # of the transpose map's zeros fills its kernel ceiling, and the verdict is Inconclusive, not NaN
    phi = mapcert.maps.MapOperator(2, 2, -transpose_map(2).choi)
    with np.errstate(all="raise"):
        cert = certify_exposed(phi, analytic_zeros_conjugation(np.eye(2), transposed=True))
    assert (cert.measured_dim, cert.required_dim, cert.verdict) == (6, 6, INCONCLUSIVE)
    assert (cert.irreducible, cert.irreducible_on_image) == (False, False)
    assert "negative eigenvalue" in cert.conditional_note


def test_the_kraus_route_and_the_certificate_share_one_eigh_of_the_unit_image(monkeypatch):
    # Phi(1) of a CP map with a rank-deficient unit image (K_s = P G_s, P of rank m - 1 = 2): the
    # route's ceiling and the certificate cut the map's one read-only eigh, which is bitwise the
    # eigh of the Hermitian part of Phi(1), at any tolerance
    rng = np.random.default_rng(3)
    q = np.linalg.qr(ginibre(rng, 3, 2))[0]
    phi = cp_map_from_kraus([q @ q.conj().T @ ginibre(rng, 3, 3) for _ in range(3)])
    unit = apply(phi, np.eye(3))
    w, v = np.linalg.eigh(0.5 * unit + 0.5 * unit.conj().T)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: calls.append(a.shape) or eigh(a, *args))
    cert = certify_exposed(phi, find_zeros(phi))
    assert calls.count((3, 3)) == 1
    assert (cert.measured_dim, cert.required_dim) == (9, 25)
    for tol in (ToleranceConfig(), ToleranceConfig(rank_rel_tol=0.5)):
        lam, basis = mapcert.maps._unit_image(phi, tol)
        keep = np.abs(w) > tol.rank_rel_tol * np.max(np.abs(w))
        assert lam.tobytes() == w[keep].tobytes() and basis.tobytes() == v[:, keep].tobytes()
    assert calls.count((3, 3)) == 1
    assert [(a.tobytes(), a.flags.writeable) for a in phi._unit_spectrum] == [(w.tobytes(), False), (v.tobytes(), False)]


def test_exposed_withheld_when_kept_pairs_exceed_the_span():
    # a kept pair that adds no strong direction makes the span count and the
    # admission count disagree; the full span alone must not certify then
    phi = transpose_map(2)
    zs = harvest_zeros(phi, seed=0)
    assert certify_exposed(phi, zs).certified
    padded = ZeroSet(2, 2, zs.pairs + zs.pairs[:1], saturated=zs.saturated)
    cert = certify_exposed(phi, padded)
    assert cert.measured_dim == cert.required_dim == 6
    assert cert.verdict == INCONCLUSIVE
    assert "fragile rank decision" in cert.conditional_note


def test_certify_rejects_mismatched_zero_set():
    zs = harvest_zeros(transpose_map(2), seed=0)
    with pytest.raises(DimensionMismatch):
        certify_optimal(transpose_map(3), zs)


def test_functional_vanishes_on_its_map_and_not_on_cp():
    phi = transpose_map(2)
    zs = analytic_zeros_conjugation(np.eye(2), transposed=True)
    witness = exposedness_functional(zs)
    assert abs(witness.value_at(phi)) < 1e-9
    rng = np.random.default_rng(7)
    values = []
    for _ in range(20):
        kraus = [ginibre(rng, 2, 2) for _ in range(3)]
        values.append(witness.value_at(cp_map_from_kraus(kraus)))
    assert min(values) >= -1e-9
    assert max(values) > 1.0  # generic CP maps are far from the hyperplane


def test_functional_is_linear_in_the_map():
    zs = analytic_zeros_conjugation(np.eye(2), transposed=True)
    witness = exposedness_functional(zs)
    rng = np.random.default_rng(8)
    kraus = [ginibre(rng, 2, 2) for _ in range(2)]
    psi = cp_map_from_kraus(kraus)
    doubled = cp_map_from_kraus([np.sqrt(2) * k for k in kraus])
    assert witness.value_at(doubled) == pytest.approx(2 * witness.value_at(psi))


def test_functional_requires_pairs():
    empty = harvest_zeros(trace_map(2), seed=0)
    with pytest.raises(EmptyZeroSet):
        exposedness_functional(empty)


def test_functional_rejects_wrong_shape():
    zs = analytic_zeros_conjugation(np.eye(2), transposed=True)
    witness = exposedness_functional(zs)
    with pytest.raises(DimensionMismatch):
        witness.value_at(transpose_map(3))
