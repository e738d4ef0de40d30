"""tools/output_digest.py, the per-family output-equivalence digests of a source tree."""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from mapcert.documents import matrix_to_payload


def load_tool():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
    try:
        import output_digest
    finally:
        sys.path.pop(0)
    return output_digest


def test_output_digest_is_deterministic():
    tool = load_tool()
    doc = json.dumps(
        {"kind": "conjugation", "dim_in": 2, "dim_out": 2, "payload": matrix_to_payload(np.eye(2)), "transposed": True}
    )
    first = ([["sweep", "--n-range", "2", "--m-range", "2"]], [(2, 2, 1, 0)], [(doc, 0)], [("random-cp", (2, 2, 1), 0)],
             [("random-pd", (2, 2, 1), 0)])
    second = ([["sweep", "--n-range", "2", "--m-range", "2", "--seed", "1"]], [(2, 3, 2, 1)], [(doc, 1)],
              [("random-cp", (2, 2, 1), 1)], [("random-pd", (2, 2, 1), 1)])
    reseeded = (first[0], first[1], second[2], first[3], first[4])
    digests = [tool.output_digest(*case) for case in (first, second, first, second, reseeded)]
    assert digests[:2] == digests[2:4]
    assert all(list(d) == list(tool.FAMILIES) for d in digests)
    assert all(digests[0][family] != digests[1][family] for family in tool.FAMILIES)
    assert all(len(d) == 64 and int(d, 16) >= 0 for digest in digests for d in digest.values())
    # only the analyze inputs changed, so only the analyze families move
    moved = [family for family in tool.FAMILIES if digests[4][family] != digests[0][family]]
    assert moved == ["analyze", "analyze-json"]


def test_oracle_family_hashes_the_value_or_the_exception_class(monkeypatch):
    import mapcert.experiments
    from mapcert.errors import OracleUnstable

    tool = load_tool()

    def expected(transposed, untransposed):
        hasher = tool._Hasher()
        hasher.add(2, 2, 1, 0, transposed, untransposed)
        return hasher.hexdigest()

    cells = [(2, 2, 1, 0)]
    plain = tool.output_digest([], cells, [])
    assert plain["oracle"] == expected(5, 5)  # n^2 m - (2n - 1) at rank 1, with and without the transpose

    def unstable(*args, **kwargs):
        raise OracleUnstable("kept changing")

    monkeypatch.setattr(mapcert.experiments, "brute_force_strong_dim_oracle", unstable)
    failing = tool.output_digest([], cells, [])
    assert failing["oracle"] == expected("OracleUnstable", "OracleUnstable")
    assert [family for family in tool.FAMILIES if failing[family] != plain[family]] == ["oracle"]


def test_harvest_family_hashes_each_kept_pair_the_strong_rows_and_saturated():
    from mapcert.zeros import harvest_zeros

    tool = load_tool()
    harvests = [("choi", (2.0, 1.0, 0.0), 0), ("random-cp", (3, 2, 3), 1)]
    expected = tool._Hasher()
    for kind, params, seed in harvests:
        zs = harvest_zeros(tool._harvest_map(kind, params), seed=seed)
        assert zs.pairs
        expected.add(kind, *params, seed, len(zs.pairs), zs.saturated, zs.strong_vectors)
        for pair in zs.pairs:
            expected.add(pair.x, pair.h, repr(pair.residual))
    digests = tool.output_digest([], [], [], harvests)
    assert digests["harvest"] == expected.hexdigest()
    assert [family for family in tool.FAMILIES if digests[family] != tool.output_digest([], [], [])[family]] == ["harvest"]


def test_positivity_family_hashes_each_heuristic_report():
    from mapcert.maps import is_positive_heuristic

    tool = load_tool()
    inputs = [("choi", (2.0, 1.0, 0.0), 0), ("random-pd", (2, 3, 1), 2), ("random-pd", (2, 3, -1), 2)]
    expected = tool._Hasher()
    reports = []
    for kind, params, seed in inputs:
        report = is_positive_heuristic(tool._harvest_map(kind, params), seed=seed)
        reports.append(report)
        expected.add(kind, *params, seed, report.passed, repr(report.worst_value), report.worst_vector.tobytes())
    # the Choi map is positive with zeros, a positive-definite Choi matrix positive, its negation not
    assert [report.passed for report in reports] == [True, True, False]
    digests = tool.output_digest([], [], [], positivity=inputs)
    assert digests["positivity"] == expected.hexdigest()
    plain = tool.output_digest([], [], [])
    assert [family for family in tool.FAMILIES if digests[family] != plain[family]] == ["positivity"]
    *_, harvests, defaults = tool.default_inputs()
    assert len(defaults) == (3 + 3 * 2) * 4
    assert {(kind, params) for kind, params, _ in defaults if kind == "choi"} == {
        (kind, params) for kind, params, _ in harvests if kind == "choi"}


def test_the_harvest_maps_are_the_generalized_choi_maps_and_random_cp_maps():
    from mapcert.experiments import random_cp_map
    from mapcert.maps import apply

    tool = load_tool()
    inputs = tool.default_inputs()[3]
    assert len(inputs) == 3 * 4 + 3 * 2
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for kind, params, seed in inputs:
        phi = tool._harvest_map(kind, params)
        if kind == "random-cp":
            assert params in ((3, 3, 4), (3, 2, 3), (4, 3, 4)) and seed in (0, 1)
            assert np.array_equal(phi.choi, random_cp_map(*params, seed=1).choi)
            continue
        a, b, c = params
        assert a in (1.2, 1.5, 2.0) and seed in range(4)
        assert a + b + c == pytest.approx(3) and b * c == pytest.approx((2 - a) ** 2) and b >= c
        # Phi[a, b, c](X) = diag(a x11 + b x22 + c x33, c x11 + a x22 + b x33, b x11 + c x22 + a x33) - X
        d = np.diag(x)
        diagonal = [a * d[0] + b * d[1] + c * d[2], c * d[0] + a * d[1] + b * d[2], b * d[0] + c * d[1] + a * d[2]]
        assert np.allclose(apply(phi, x), np.diag(diagonal) - x)


def test_default_inputs_rerun_the_seed_1_mixed_documents_at_another_rank_threshold():
    tool = load_tool()
    documents = tool.default_inputs()[2]
    rerun = [document for document in documents if document[2:] == ("--tol", "1e-7")]
    assert len(rerun) == 24 and all(seed == 1 for _, seed, *_ in rerun)
    assert [text for text, *_ in rerun] == [text for text, *_ in documents[:24]]
    assert all(len(document) == 2 for document in documents if document not in rerun)


def test_the_last_analyze_documents_are_the_co_cp_partial_transposes_of_random_cp_maps():
    from mapcert.documents import parse_map_file, to_map_operator
    from mapcert.experiments import random_cp_map

    tool = load_tool()
    documents = tool.default_inputs()[2]
    assert len(documents) == 274
    shapes = [(n, m, k, seed) for n, m, k in ((3, 2, 3), (4, 2, 4), (4, 3, 4)) for seed in range(3)]
    for (text, seed), (n, m, k, map_seed) in zip(documents[-9:], shapes, strict=True):
        phi = to_map_operator(parse_map_file(text))
        twin = random_cp_map(n, m, k, seed=map_seed).choi.reshape(n, m, n, m).transpose(2, 1, 0, 3)
        # a -> Phi(a^T): its block matrix is the partial transpose of the CP map's, k > m at n >= 3
        assert seed == map_seed and np.array_equal(phi.choi, twin.reshape(n * m, n * m))


def test_run_listing_names_the_analyze_run_whose_bytes_moved():
    tool = load_tool()

    def doc(transposed):
        return json.dumps(
            {"kind": "conjugation", "dim_in": 2, "dim_out": 2, "payload": matrix_to_payload(np.eye(2)),
             "transposed": transposed}
        )

    listings = []
    for documents in ([(doc(True), 0), (doc(False), 0), (doc(True), 1)], [(doc(True), 0), (doc(True), 0), (doc(True), 1)]):
        runs = []
        digests = tool.output_digest([], [], documents, runs=runs)
        assert len(runs) == len(documents)
        assert all(len(run) == 64 and int(run, 16) >= 0 for run in runs)
        listings.append((digests, runs))
    (first, first_runs), (second, second_runs) = listings
    assert [index for index, (a, b) in enumerate(zip(first_runs, second_runs)) if a != b] == [1]
    assert first_runs[0] == second_runs[1]  # a run's digest depends on its inputs only, not its index
    assert first["analyze"] != second["analyze"]


def test_zero_set_dims_moves_only_when_a_count_or_dimension_does(monkeypatch):
    import mapcert.zeros
    from mapcert.zeros import ZeroPair, ZeroSet

    tool = load_tool()
    cells = [(2, 3, 1, 0)]
    plain = tool.output_digest([], cells, [])
    # both routes on the rank-1 2x3 cell: 9 pairs, weak span 5, strong span 9, saturated
    expected = tool._Hasher()
    expected.add(2, 3, 1, 0, 9, 5, 9, True, 9, 5, 9, True)
    assert plain["zero-set-dims"] == expected.hexdigest()

    # the same pairs with x rephased: other bytes, the same spans
    analytic = mapcert.zeros.analytic_zeros_conjugation

    def rephased(*args, **kwargs):
        zs = analytic(*args, **kwargs)
        pairs = [ZeroPair(x=1j * p.x, h=p.h, residual=p.residual) for p in zs.pairs]
        return ZeroSet(zs.dim_in, zs.dim_out, pairs, zs.saturated)

    monkeypatch.setattr(mapcert.zeros, "analytic_zeros_conjugation", rephased)
    moved = tool.output_digest([], cells, [])
    assert [family for family in tool.FAMILIES if moved[family] != plain[family]] == ["zero-sets"]

    # a pair dropped: the count and the spans move too
    monkeypatch.setattr(mapcert.zeros, "analytic_zeros_conjugation",
                        lambda *a, **k: ZeroSet(2, 3, analytic(*a, **k).pairs[1:], True))
    dropped = tool.output_digest([], cells, [])
    assert [family for family in tool.FAMILIES if dropped[family] != plain[family]] == ["zero-sets", "zero-set-dims"]


def test_a_reader_that_closes_the_pipe_ends_the_listing_quietly(monkeypatch):
    tool = load_tool()
    read, write = os.pipe()
    os.close(read)
    stdout = open(write, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    # more than stdout's buffer holds, so a print meets the closed pipe, not only the final flush
    tool._print_listing({family: "0" * 64 for family in tool.FAMILIES}, ["1" * 64] * 4000)
    stdout.close()  # the buffered rest goes to /dev/null without a BrokenPipeError
