"""Irreducibility machinery and sufficiency certificates.

Two certificates are issued, both one-sided: a full weak span certifies
optimality, and a full strong span plus irreducibility on the image
certifies exposedness.  When the test quantity falls short the verdict is
Inconclusive, never a refutation: the conditions are sufficient only, and
there are exposed maps (rank-deficient conjugations) that fail them.

Irreducibility is decided on the unital normal form of the map on the
image of Phi(1), a -> L^(-1/2) Q^H Phi(a) Q L^(-1/2) for the eigenpairs
(L, Q) that Phi(1) keeps, whose commutant is screened by the eigenvalues of
a small Gram operator; the commutant of the whole map (``commutant_basis``)
is not solved on that path.  A full strong span makes every map on the
face X Phi(a) with X Phi(a) = Phi(a) X^H, and only irreducibility of the
normal form (``intertwiner_space`` of real dimension 1) makes X a scalar;
that of the compression Q^H Phi(a) Q certified sums of two CP maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CrossCheckError, DimensionMismatch, EmptyZeroSet
from .linalg import DEFAULT_TOL, ToleranceConfig, _rank, kernel_basis
from .maps import MapOperator, _cp_rank, _image_table, _normal_form_table, _positivity_proof, _unit_image, apply
from .zeros import ZeroSet, strong_span_dim, weak_span_dim

__all__ = [
    "OPTIMAL",
    "EXPOSED",
    "CERTIFIED",
    "INCONCLUSIVE",
    "Certificate",
    "FunctionalWitness",
    "IntertwinerSpace",
    "commutant_basis",
    "intertwiner_space",
    "certify_optimal",
    "certify_exposed",
    "exposedness_functional",
]

OPTIMAL = "Optimal"
EXPOSED = "Exposed"
CERTIFIED = "Certified"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Certificate:
    """Outcome of one sufficiency check.

    ``measured_dim`` / ``required_dim`` are the span dimension found and the
    dimension the condition demands; Certified requires exact equality (and,
    for the Exposed claim, irreducibility on the image: the unital normal
    form on the image of Phi(1) has only scalars in its commutant; it is
    False when a negative eigenvalue of Phi(1) proves the map not positive,
    as no normal form exists).  ``irreducible`` is reported beside it for
    the Exposed claim: irreducibility on the image with Phi(1) of full rank,
    the unital normal form irreducible on all of M_m.  It does not enter
    the verdict.
    The note records the standing caveats of the check, chiefly whether
    positivity of the input is proven (C or its partial transpose C^G is
    PSD: a CP or co-CP map) or only assumed, as for every other map.
    """

    claim: str
    verdict: str
    measured_dim: int
    required_dim: int
    irreducible_on_image: bool | None
    conditional_note: str
    irreducible: bool | None = None

    def __post_init__(self):
        if self.claim not in (OPTIMAL, EXPOSED):
            raise ValueError(f"unknown claim {self.claim!r}")
        if self.verdict not in (CERTIFIED, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.measured_dim > self.required_dim:
            raise ValueError("measured dimension exceeds the required dimension")
        if self.verdict == CERTIFIED:
            if self.measured_dim != self.required_dim:
                raise ValueError("Certified verdict with a dimension shortfall")
            if self.claim == EXPOSED and not self.irreducible_on_image:
                raise ValueError("Certified Exposed verdict without irreducibility")

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED


@dataclass(frozen=True)
class FunctionalWitness:
    """Linear functional f(Psi) = sum_i <h_i| Psi(a_i) |h_i> over zero pairs.

    f vanishes on the map the pairs came from and is nonnegative on every
    positive map, so f = 0 is a supporting hyperplane through that map.
    """

    generators: list[tuple[np.ndarray, np.ndarray]]
    value_at: Callable[[MapOperator], float]


@dataclass(frozen=True)
class IntertwinerSpace:
    """Real-linear solution space of X Phi(a) = Phi(a) X^H over Hermitian a."""

    real_dimension: int
    basis: list[np.ndarray]


def _kron_stacks(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G kron 1 and 1 kron G^T for every image G = table[i, j], row-major in (i, j).

    Both are (n, n, m, m, m, m) arrays indexed (i, j, row a, row b, col c,
    col d), each Kronecker product broadcast as np.kron forms it.  The
    commutant and intertwiner conditions are complex-linear in the argument
    a, so the matrix units E_ij give the same solution spaces as a Hermitian
    basis, and the images are read from a table (the map's, or its
    compression), not evaluated.
    """
    eye = np.eye(table.shape[-1], dtype=complex)
    # C order, so that the stacks reshape into systems without a copy
    kron_g_1 = np.multiply(table[:, :, :, None, :, None], eye[:, None, :], order="C")
    kron_1_gt = np.multiply(eye[:, None, :, None], table.swapaxes(2, 3)[:, :, None, :, None, :], order="C")
    return kron_g_1, kron_1_gt


def _commutant_system(table: np.ndarray) -> np.ndarray:
    """The stacked n^2 m^2 x m^2 commutator system of the images in an (n, n, m, m) table."""
    # row-major vec: vec(GX - XG) = (G kron 1 - 1 kron G^T) vec(X), built in place
    system, kron_1_gt = _kron_stacks(table)
    system -= kron_1_gt
    return system.reshape(-1, table.shape[-1] ** 2)


def commutant_basis(phi: MapOperator, tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Basis of {X : [Phi(a), X] = 0 for all a}.

    The commutators with the n^2 images Phi(E_ij) stack into an n^2 m^2 by
    m^2 linear system whose numerical kernel is the commutant; it always
    contains the identity, so the result is nonempty.
    """
    m = phi.dim_out
    cols = kernel_basis(_commutant_system(_image_table(phi)), tol)
    return [cols[:, k].reshape(m, m) for k in range(cols.shape[1])]


def _irreducible_on_image(g: np.ndarray, tol: ToleranceConfig) -> bool:
    """Whether the images g[i, j] of the unital normal form on the image of Phi(1) have only scalars as
    commutant.

    The Gram operator L = A^H A of their commutator system A is S kron 1 +
    1 kron conj(S') - K - K^H, with S = sum G^H G, S' = sum G G^H and
    K = sum G kron conj(G).  The identity spans a kernel direction, so
    lambda_2(L) > gate^2 lambda_max(L), gate = max(rank_rel_tol, 1e-6), proves
    the kernel one-dimensional.  L cannot resolve singular values below about
    sqrt(eps) sigma_max, so under the gate the SVD of A counts the kernel.
    """
    r = g.shape[-1]
    if r <= 1:
        return r == 1
    gc = g.conj()
    s_in, s_out = np.einsum("ijba,ijbc->ac", gc, g), np.einsum("ijab,ijcb->ac", g, gc)
    k = np.einsum("ijac,ijbd->abcd", g, gc).reshape(r * r, r * r)
    eye = np.eye(r)
    gram = s_in[:, None, :, None] * eye[:, None] + eye[:, None, :, None] * s_out.conj()[:, None]
    w = np.linalg.eigvalsh(gram.reshape(r * r, r * r) - k - k.conj().T)
    if w[1] > max(tol.rank_rel_tol, 1e-6) ** 2 * w[-1]:
        return True
    return kernel_basis(_commutant_system(g), tol).shape[1] == 1


def intertwiner_space(phi: MapOperator, tol: ToleranceConfig = DEFAULT_TOL) -> IntertwinerSpace:
    """Solve X Phi(a) = Phi(a) X^H for all Hermitian a.

    The conjugation on X makes the solution set a real vector space, not a
    complex one, so the system is linearized over real and imaginary parts
    separately and solved as a real kernel problem.  For any map whose
    commutant is trivial the answer is the real line through the identity.
    """
    m = phi.dim_out
    # row-major vec: vec(X G) = A vec(X) with A = 1 kron G^T, and vec(G X^H) =
    # B conj(vec X) with B = G kron 1 read at column pair (d, c) for (c, d).
    # With vec X = u + iv the defect is (A - B) u + i (A + B) v, split into parts.
    kron_g_1, a = _kron_stacks(_image_table(phi))
    b = kron_g_1.swapaxes(4, 5)
    minus, plus = (a - b).reshape(-1, m * m), (a + b).reshape(-1, m * m)
    system = np.block([[minus.real, -plus.imag], [minus.imag, plus.real]])
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    null = vh[_rank(s, tol):]
    mats = [(u + 1j * v).reshape(m, m) for u, v in zip(null[:, : m * m], null[:, m * m :])]
    return IntertwinerSpace(real_dimension=len(mats), basis=mats)


def _check_compatible(phi: MapOperator, zs: ZeroSet):
    if (zs.dim_in, zs.dim_out) != (phi.dim_in, phi.dim_out):
        raise DimensionMismatch(
            f"zero set is {zs.dim_in}x{zs.dim_out}, map is {phi.dim_in}x{phi.dim_out}"
        )


def _positivity_note(phi: MapOperator) -> str:
    """The standing caveat: positivity is proven for CP and co-CP maps, and only assumed otherwise."""
    proof = _positivity_proof(phi)
    if proof is not None:
        return f"sufficient condition only; positivity of the input map is proven ({proof} is positive semidefinite)"
    return "sufficient condition only; positivity of the input map is assumed (verified heuristically at best, never proven)"


def certify_optimal(phi: MapOperator, zs: ZeroSet, tol: ToleranceConfig = DEFAULT_TOL) -> Certificate:
    """Certified when the weak vectors of the zero set span all of C^n (x) C^m.

    A shortfall yields Inconclusive: the map may still be optimal, the
    spanning condition is not necessary.  When Phi is completely positive
    (C positive semidefinite), every genuine zero has C (x (x) h) = 0, so the
    weak span is at most nm - rank C; a measured dimension above that
    ceiling raises CrossCheckError instead of certifying.
    """
    _check_compatible(phi, zs)
    measured = weak_span_dim(zs, tol)
    required = phi.dim_in * phi.dim_out
    cp_rank = _cp_rank(phi, tol)
    if cp_rank is not None and measured > required - cp_rank:
        raise CrossCheckError(
            f"weak span {measured} exceeds the weak ceiling {required - cp_rank} = nm - rank C "
            "of a completely positive map; the zero set contains non-zeros or the rank tolerance is off"
        )
    verdict = CERTIFIED if measured == required else INCONCLUSIVE
    return Certificate(
        claim=OPTIMAL,
        verdict=verdict,
        measured_dim=measured,
        required_dim=required,
        irreducible_on_image=None,
        conditional_note=_positivity_note(phi),
    )


def certify_exposed(phi: MapOperator, zs: ZeroSet, tol: ToleranceConfig = DEFAULT_TOL) -> Certificate:
    """Certified when the strong span fills the kernel ceiling and the map's
    unital normal form is irreducible on the image of Phi(1).

    The ceiling is n^2 m - rank Phi(1): strong vectors always lie in the
    kernel of the operator a (x) h -> Phi(a) h, whose rank equals the rank of
    Phi(1).  When Phi is completely positive, each strong vector is
    conj(x) (x) (x (x) h) with x (x) h in ker C, so the span is also at most
    n (nm - rank C); when Phi is co-CP, the same holds with the partial
    transpose C^G of C, whose zeros are (conj(x), h), as their strong vectors
    are Phi's with the first two factors swapped.  A measured dimension above
    any ceiling is impossible for genuine zeros and raises CrossCheckError
    instead of certifying.  The kept pairs
    were admitted one by one as independent strong vectors; when their count
    differs from the measured dimension the rank decision is fragile, and
    the verdict is Inconclusive.  A CP or co-CP map of rank >= 2 is a sum of
    two positive maps that are not proportional, so not extremal; a
    certificate for one raises CrossCheckError.
    """
    _check_compatible(phi, zs)
    n, m = phi.dim_in, phi.dim_out
    measured = strong_span_dim(zs, tol)
    lam, q = _unit_image(phi, tol)
    unit_rank = len(lam)
    required = n * n * m - unit_rank
    if measured > required:
        raise CrossCheckError(
            f"strong span {measured} exceeds the kernel ceiling {required}; "
            "the zero set contains non-zeros or the rank tolerance is off"
        )
    # every ceiling is at least 0, so a zero-free map needs neither spectrum here
    cp_ranks = [_cp_rank(phi, tol, transposed) for transposed in (False, True)] if measured else []
    for cp_rank, block, kind in zip(cp_ranks, ("C", "C^G"), ("completely positive", "co-CP")):
        if cp_rank is not None and measured > n * (n * m - cp_rank):
            raise CrossCheckError(
                f"strong span {measured} exceeds the strong ceiling {n * (n * m - cp_rank)} = n(nm - rank {block}) "
                f"of a {kind} map; the zero set contains non-zeros or the rank tolerance is off"
            )
    # The unital normal form a -> L^(-1/2) Q^H Phi(a) Q L^(-1/2) on the image of Phi(1), where every image
    # of a positive map lies.  A kept negative eigenvalue of Phi(1) proves Phi not positive: it has no
    # unital normal form, and irreducibility is not claimed.
    positive_unit = bool(np.all(lam > 0))
    irreducible_on_image = positive_unit and _irreducible_on_image(_normal_form_table(phi, lam, q), tol)
    irreducible = irreducible_on_image and unit_rank == m
    stable = len(zs.pairs) == measured
    verdict = CERTIFIED if (measured == required and irreducible_on_image and stable) else INCONCLUSIVE
    if verdict == CERTIFIED and any(cp_rank is not None and cp_rank >= 2 for cp_rank in cp_ranks):
        raise CrossCheckError(
            "Exposed would be certified on a completely positive or co-CP map of rank >= 2, a sum of two "
            "positive maps that are not proportional and so not extremal; the irreducibility test is off"
        )
    note = _positivity_note(phi)
    if not positive_unit:
        note += "; Phi(1) has a negative eigenvalue, so the map is not positive and has no unital normal form"
    if not stable:
        note += (
            f"; {len(zs.pairs)} zero pairs were admitted as independent but "
            f"their strong span has dimension {measured}, a fragile rank decision"
        )
    if unit_rank < m:
        note += (
            "; Phi(1) is rank deficient, so irreducibility was tested on the "
            "compression to its image"
        )
    return Certificate(
        claim=EXPOSED,
        verdict=verdict,
        measured_dim=measured,
        required_dim=required,
        irreducible_on_image=irreducible_on_image,
        conditional_note=note,
        irreducible=irreducible,
    )


def exposedness_functional(zs: ZeroSet) -> FunctionalWitness:
    """Supporting-hyperplane functional built from the zero pairs.

    Uses every kept pair (the admission rule already reduced them to a
    spanning subset).  value_at returns the real part of the sum; the
    imaginary part is eigensolver dust since each term is a quadratic form
    of a Hermitian matrix.
    """
    if not zs.pairs:
        raise EmptyZeroSet("cannot build a functional from an empty zero set")
    generators = [(np.outer(p.x.conj(), p.x), p.h) for p in zs.pairs]

    def value_at(psi: MapOperator) -> float:
        if (psi.dim_in, psi.dim_out) != (zs.dim_in, zs.dim_out):
            raise DimensionMismatch(
                f"functional is {zs.dim_in}x{zs.dim_out}, map is {psi.dim_in}x{psi.dim_out}"
            )
        total = 0.0
        for a, h in generators:
            total += float(np.real(h.conj() @ (apply(psi, a) @ h)))
        return total

    return FunctionalWitness(generators=generators, value_at=value_at)
