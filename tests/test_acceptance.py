"""Acceptance gate: one test per claimed guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test also carries its criterion number in its name.  Expected values
here are exact integers cross-checked by three independent routes (closed
form, analytic enumeration, dense-sampling oracle), never tuned to match.
"""

import numpy as np
import pytest

from mapcert.certify import (
    CERTIFIED,
    INCONCLUSIVE,
    certify_exposed,
    commutant_basis,
    exposedness_functional,
    intertwiner_space,
)
from mapcert.experiments import (
    BOTH_RULES,
    NEITHER_RULE,
    brute_force_strong_dim_oracle,
    check_image_inclusion,
    random_cp_map,
    random_rank_operator,
    run_dimension_sweep,
    sweep_cells,
)
from mapcert.linalg import DEFAULT_TOL, kernel_inclusion_factor, numerical_rank
from mapcert.maps import (
    MapOperator,
    dephasing_map,
    from_conjugation,
    identity_map,
    trace_map,
    transpose_map,
    unital_normalization,
)
from mapcert.zeros import (
    analytic_zeros_conjugation,
    harvest_zeros,
    strong_span_dim,
    weak_span_dim,
)

SEEDS = range(5)


def verdict_line(number: int, label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert passed, f"criterion {number}: {label}{suffix}"


@pytest.fixture(scope="module")
def sweep_cache():
    """All (n, m, rank) grid cells at five seeds each; shared downstream."""
    return [
        run_dimension_sweep(n, m, r, seed=seed)
        for (n, m, r) in sweep_cells()
        for seed in SEEDS
    ]


def test_criterion_1_rank2_count():
    bad = []
    for m in range(2, 7):
        target = 4 * m - 2
        for seed in SEEDS:
            v = random_rank_operator(2, m, 2, seed=seed)
            routes = {
                "harvest": strong_span_dim(
                    harvest_zeros(from_conjugation(v, transposed=True), seed=seed)
                ),
                "oracle": brute_force_strong_dim_oracle(v, seed=seed),
            }
            for factor in (1.0, 10.0, 0.1):
                tol = DEFAULT_TOL.scaled(factor)
                routes[f"analytic x{factor}"] = strong_span_dim(
                    analytic_zeros_conjugation(v, transposed=True, tol=tol), tol
                )
            for route, dim in routes.items():
                if dim != target:
                    bad.append(f"m={m} seed={seed} {route}: {dim} != {target}")
    verdict_line(
        1,
        "2 x m rank-2 strong dimension equals 4m-2 on all routes",
        not bad,
        "; ".join(bad[:3]),
    )


def test_criterion_2_dimension_sweep(sweep_cache):
    problems = []
    verdicts = {r.agrees_with for r in sweep_cache}
    if NEITHER_RULE in verdicts:
        problems.append("a cell matched neither closed-form rule")
    decisive = verdicts - {BOTH_RULES}
    if len(decisive) > 1:
        problems.append(f"cells split between rules: {sorted(decisive)}")
    for n, m, r in sweep_cells():
        v = random_rank_operator(n, m, r, seed=0)
        oracle = brute_force_strong_dim_oracle(v, seed=0)
        measured = next(
            rep.measured_strong_dim
            for rep in sweep_cache
            if (rep.n, rep.m, rep.rank_v, rep.seed) == (n, m, r, 0)
        )
        if oracle != measured:
            problems.append(f"cell ({n},{m},{r}): oracle {oracle} != measured {measured}")
    winner = sorted(decisive)[0] if decisive else BOTH_RULES
    verdict_line(
        2,
        f"sweep grid follows one rule consistently [{winner}], oracle concurs",
        not problems,
        "; ".join(problems[:3]),
    )


def test_criterion_3_exposedness_certificates():
    rank1 = random_rank_operator(2, 2, 1, seed=5)
    cases = [
        ("transpose", transpose_map(2),
         analytic_zeros_conjugation(np.eye(2), transposed=True), CERTIFIED),
        ("identity", identity_map(2),
         analytic_zeros_conjugation(np.eye(2), transposed=False), CERTIFIED),
        ("trace", trace_map(2), harvest_zeros(trace_map(2), seed=0), INCONCLUSIVE),
        ("rank-1 conjugation", from_conjugation(rank1, transposed=True),
         analytic_zeros_conjugation(rank1, transposed=True), INCONCLUSIVE),
    ]
    bad = []
    for label, phi, zs, expected in cases:
        got = certify_exposed(phi, zs).verdict
        again = certify_exposed(phi, zs).verdict
        if got != expected:
            bad.append(f"{label}: {got} != {expected}")
        if got != again:
            bad.append(f"{label}: verdict not deterministic")
    verdict_line(
        3,
        "exposedness verdicts: transpose/identity Certified, trace/rank-1 Inconclusive",
        not bad,
        "; ".join(bad),
    )


def test_criterion_4_strong_spanning_iff_full_rank(sweep_cache):
    bad = []
    for rep in sweep_cache:
        reaches = rep.measured_strong_dim == rep.strong_target
        if rep.rank_v == rep.n and not reaches:
            bad.append(
                f"({rep.n},{rep.m},{rep.rank_v}) seed {rep.seed}: "
                f"{rep.measured_strong_dim} < target {rep.strong_target}"
            )
        if rep.rank_v < rep.n and rep.measured_strong_dim >= rep.strong_target:
            bad.append(
                f"({rep.n},{rep.m},{rep.rank_v}) seed {rep.seed}: "
                f"not strictly below target"
            )
    verdict_line(
        4,
        "strong dimension reaches the kernel ceiling exactly at full input rank",
        not bad,
        "; ".join(bad[:3]),
    )


def test_criterion_5_kernel_inclusion_factor():
    rng = np.random.default_rng(0)
    bad = []
    for trial in range(100):
        size = int(rng.integers(2, 9))
        inner = int(rng.integers(1, size + 1))
        b = (rng.standard_normal((size, inner)) + 1j * rng.standard_normal((size, inner))) @ (
            rng.standard_normal((inner, size)) + 1j * rng.standard_normal((inner, size))
        )
        c = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        a = c @ b  # ker(B) <= ker(A) by construction
        x = kernel_inclusion_factor(a, b)
        rel = np.linalg.norm(a - x @ b) / np.linalg.norm(a, 2)
        if rel > 1e-8:
            bad.append(f"trial {trial}: residual {rel:.2e}")
        if numerical_rank(x) != numerical_rank(a):
            bad.append(f"trial {trial}: rank {numerical_rank(x)} != {numerical_rank(a)}")
    verdict_line(
        5,
        "factor recovery A = XB with matching rank on 100 constructed inclusions",
        not bad,
        "; ".join(bad[:3]),
    )


def test_criterion_6_irreducible_intertwiners():
    bad = []
    accepted = 0
    seed = 0
    while accepted < 50 and seed < 200:
        d = 2 + (seed % 2)
        unital = unital_normalization(random_cp_map(d, d, seed=seed)).unital_part
        seed += 1
        if len(commutant_basis(unital)) != 1:
            continue  # rejection sampling: keep only irreducible draws
        accepted += 1
        real_dim = intertwiner_space(unital).real_dimension
        if real_dim != 1:
            bad.append(f"seed {seed - 1}: intertwiner dimension {real_dim}")
    if accepted < 50:
        bad.append(f"only {accepted} irreducible maps found")
    for n in (2, 3, 4):
        dim = len(commutant_basis(dephasing_map(n)))
        if dim != n:
            bad.append(f"dephasing on M_{n}: commutant dimension {dim} != {n}")
    verdict_line(
        6,
        "intertwiner space is one-dimensional for 50 random irreducible unital maps",
        not bad,
        "; ".join(bad[:3]),
    )


def test_criterion_7_functional_hyperplane():
    witness = exposedness_functional(analytic_zeros_conjugation(np.eye(2), transposed=True))
    self_value = witness.value_at(transpose_map(2))
    worst = min(
        witness.value_at(random_cp_map(2, 2, kraus_count=1 + seed % 3, seed=seed))
        for seed in range(200)
    )
    ok = abs(self_value) <= 1e-9 and worst >= -1e-9
    verdict_line(
        7,
        "witness functional vanishes on its map, nonnegative on 200 CP maps",
        ok,
        f"self {self_value:.2e}, CP minimum {worst:.2e}",
    )


def test_criterion_8_image_inclusion():
    maps = []
    for seed in range(50):
        n = 2 + seed % 2
        m = 2 + (seed // 2) % 2
        maps.append(random_cp_map(n, m, kraus_count=1 + seed % 3, seed=seed))
    for seed in range(50):
        n = 2 + seed % 2
        m = 2 + seed % 3
        r = 1 + seed % min(n, m)
        v = random_rank_operator(n, m, r, seed=seed)
        maps.append(from_conjugation(v, transposed=bool(seed % 2)))
    bad = []
    for i, phi in enumerate(maps):
        report = check_image_inclusion(phi, trials=20, seed=i)
        if not report.passed or report.max_inclusion_residual > 1e-9 * report.scale:
            bad.append(f"map {i}: residual {report.max_inclusion_residual:.2e}")
    verdict_line(
        8,
        "image inclusion holds over 100 maps at 20 trials each",
        not bad,
        "; ".join(bad[:3]),
    )


def test_criterion_9_invariants(sweep_cache):
    bad = []
    for rep in sweep_cache:
        if rep.measured_strong_dim > rep.strong_target:
            bad.append(
                f"({rep.n},{rep.m},{rep.rank_v}) seed {rep.seed} exceeds the kernel ceiling"
            )
    for phi, ceiling in [
        (transpose_map(2), 6),
        (identity_map(3), 24),
        (trace_map(2), 0),
    ]:
        if strong_span_dim(harvest_zeros(phi, seed=0)) > ceiling:
            bad.append("frozen case exceeds its kernel ceiling")
    for seed in range(20):
        n = 2 + seed % 2
        m = 2 + seed % 3
        r = 1 + seed % min(n, m)
        v = random_rank_operator(n, m, r, seed=seed)
        phi = from_conjugation(v, transposed=True)
        few = harvest_zeros(phi, seed=seed, starts=20)
        many = harvest_zeros(phi, seed=seed, starts=120)
        if strong_span_dim(few) > strong_span_dim(many):
            bad.append(f"map {seed}: strong dimension dropped with more starts")
        if weak_span_dim(few) > weak_span_dim(many):
            bad.append(f"map {seed}: weak dimension dropped with more starts")
        scaled = MapOperator(n, m, 3.0 * phi.choi)
        base = harvest_zeros(phi, seed=seed)
        tripled = harvest_zeros(scaled, seed=seed)
        if (weak_span_dim(base), strong_span_dim(base)) != (
            weak_span_dim(tripled),
            strong_span_dim(tripled),
        ):
            bad.append(f"map {seed}: spans changed under rescaling")
    verdict_line(
        9,
        "kernel ceiling, harvest monotonicity, and scale invariance all hold",
        not bad,
        "; ".join(bad[:3]),
    )
