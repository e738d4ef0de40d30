"""tools/output_digest.py, the per-family output-equivalence digests of a source tree."""

import json
import os
import sys
from pathlib import Path

import numpy as np

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
    first = ([["sweep", "--n-range", "2", "--m-range", "2"]], [(2, 2, 1, 0)], [(doc, 0)])
    second = ([["sweep", "--n-range", "2", "--m-range", "2", "--seed", "1"]], [(2, 3, 2, 1)], [(doc, 1)])
    reseeded = (first[0], first[1], second[2])
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

    def expected(value):
        hasher = tool._Hasher()
        hasher.add(2, 2, 1, 0, value)
        return hasher.hexdigest()

    cells = [(2, 2, 1, 0)]
    plain = tool.output_digest([], cells, [])
    assert plain["oracle"] == expected(5)  # n^2 m - (2n - 1) at rank 1

    def unstable(*args, **kwargs):
        raise OracleUnstable("kept changing")

    monkeypatch.setattr(mapcert.experiments, "brute_force_strong_dim_oracle", unstable)
    failing = tool.output_digest([], cells, [])
    assert failing["oracle"] == expected("OracleUnstable")
    assert [family for family in tool.FAMILIES if failing[family] != plain[family]] == ["oracle"]


def test_default_inputs_rerun_the_seed_1_mixed_documents_at_another_rank_threshold():
    tool = load_tool()
    documents = tool.default_inputs()[2]
    rerun = [document for document in documents if document[2:] == ("--tol", "1e-7")]
    assert len(rerun) == 24 and all(seed == 1 for _, seed, *_ in rerun)
    assert [text for text, *_ in rerun] == [text for text, *_ in documents[:24]]
    assert all(len(document) == 2 for document in documents if document not in rerun)


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
        return ZeroSet.from_pairs(zs.dim_in, zs.dim_out, pairs, zs.saturated)

    monkeypatch.setattr(mapcert.zeros, "analytic_zeros_conjugation", rephased)
    moved = tool.output_digest([], cells, [])
    assert [family for family in tool.FAMILIES if moved[family] != plain[family]] == ["zero-sets"]

    # a pair dropped: the count and the spans move too
    monkeypatch.setattr(mapcert.zeros, "analytic_zeros_conjugation",
                        lambda *a, **k: ZeroSet.from_pairs(2, 3, analytic(*a, **k).pairs[1:], True))
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
