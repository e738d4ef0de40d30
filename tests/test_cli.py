"""End-to-end exercises of the mapcert command line through main()."""

import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mapcert.certify
import mapcert.cli
import mapcert.documents
import mapcert.experiments
import mapcert.zeros
from mapcert.cli import main
from mapcert.errors import CrossCheckError, OracleUnstable
from mapcert.experiments import BOTH_RULES, SweepReport, sweep_cells
from mapcert.documents import (
    matrix_to_payload,
    parse_certificate_document,
    parse_map_file,
    payload_to_matrix,
)


def write_doc(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def transpose_doc(tmp_path, name="transpose.json"):
    return write_doc(
        tmp_path,
        name,
        {
            "kind": "conjugation",
            "dim_in": 2,
            "dim_out": 2,
            "payload": matrix_to_payload(np.eye(2)),
            "transposed": True,
        },
    )


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "mapcert" in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_analyze_transpose_map(tmp_path, capsys):
    code = main(["analyze", transpose_doc(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "map: conjugation 2 -> 2 (transposed)" in out
    assert "Optimal: Certified  (weak span 4 / 4)" in out
    assert "Exposed: Certified  (strong span 6 / 6)" in out


def test_analyze_output_parses_for_the_benchmark(tmp_path, capsys):
    # perfbench/ reads analyze's stdout and JSON report with its own parsers;
    # this pins the lines and fields it depends on.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    report_path = tmp_path / "report.json"
    code = main(["analyze", transpose_doc(tmp_path), "--json", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    expected = (6, 4, 6, "Certified", "Certified")
    assert workloads.facts_from_stdout(out) == expected
    assert workloads.facts_from_report(str(report_path)) == expected


def test_analyze_is_deterministic(tmp_path, capsys):
    path = transpose_doc(tmp_path)
    main(["analyze", path])
    first = capsys.readouterr().out
    main(["analyze", path])
    assert capsys.readouterr().out == first


def test_analyze_writes_json_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["analyze", transpose_doc(tmp_path), "--json", str(report_path)])
    capsys.readouterr()
    assert code == 0
    blob = report_path.read_bytes()
    assert set(json.loads(blob)) == {
        "input_digest", "certificates", "zero_set_summary", "tool_version", "seed", "tolerances"
    }
    doc = parse_certificate_document(blob)
    assert doc.seed == 0
    claims = {c["claim"]: c["verdict"] for c in doc.certificates}
    assert claims == {"Optimal": "Certified", "Exposed": "Certified"}
    assert doc.zero_set_summary["weak_span_dim"] == 4
    assert doc.zero_set_summary["strong_span_dim"] == 6
    assert doc.zero_set_summary["saturated"] is True


def test_analyze_measures_each_span_once(tmp_path, monkeypatch, capsys):
    # The certificates measure both spans; the report reads their dimensions.
    calls = {"weak_span_dim": 0, "strong_span_dim": 0}
    for name in calls:
        measure = getattr(mapcert.zeros, name)

        def counted(*args, _name=name, _measure=measure, **kwargs):
            calls[_name] += 1
            return _measure(*args, **kwargs)

        for module in (mapcert.zeros, mapcert.certify, mapcert.cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    code = main(["analyze", transpose_doc(tmp_path), "--json", str(tmp_path / "report.json")])
    capsys.readouterr()
    assert code == 0
    assert calls == {"weak_span_dim": 1, "strong_span_dim": 1}


class PreparedMapCounts:
    """Counts, at their lookup sites, of what preparing a map costs: conjugation
    maps built, MapOperators constructed (dims), spectral-scale SVDs
    (2-norms) and np.linalg.svd calls."""

    def __init__(self, monkeypatch):
        self.conjugations, self.operators, self.scales, self.svds = 0, [], 0, 0
        build = mapcert.maps.from_conjugation

        def conjugation(*args, **kwargs):
            self.conjugations += 1
            return build(*args, **kwargs)

        for module in (mapcert.maps, mapcert.zeros, mapcert.experiments, mapcert.documents, mapcert.cli):
            if getattr(module, "from_conjugation", None) is build:
                monkeypatch.setattr(module, "from_conjugation", conjugation)
        operator_type = mapcert.maps.MapOperator
        validate = operator_type.__post_init__

        def construct(operator):
            self.operators.append((operator.dim_in, operator.dim_out))
            validate(operator)

        monkeypatch.setattr(operator_type, "__post_init__", construct)
        norm, svd = np.linalg.norm, np.linalg.svd

        def counted_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                self.scales += 1
            return norm(x, ord, *args, **kwargs)

        def counted_svd(*args, **kwargs):
            self.svds += 1
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)


def test_analyze_prepares_the_map_once(tmp_path, monkeypatch, capsys):
    v = mapcert.experiments.random_rank_operator(2, 3, 2, seed=1)
    path = write_doc(
        tmp_path,
        "conj.json",
        {"kind": "conjugation", "dim_in": 2, "dim_out": 3, "payload": matrix_to_payload(v), "transposed": True},
    )
    counts = PreparedMapCounts(monkeypatch)
    assert main(["analyze", path]) == 0
    capsys.readouterr()
    # the map, built once (its adjoint is a block array, not a map); one
    # scale for the positivity heuristic and the harvest; SVDs: weak span,
    # strong span, Phi(1) (its rank and its image projector), the commutant,
    # the compressed commutant
    assert counts.conjugations == 1
    assert counts.operators == [(2, 3)]
    assert counts.scales == 1
    assert counts.svds == 5


def test_sweep_prepares_each_cell_map_once(monkeypatch, capsys):
    counts = PreparedMapCounts(monkeypatch)
    assert main(["sweep", "--n-range", "2", "--m-range", "2..3"]) == 0
    capsys.readouterr()
    # four cells; each builds one conjugation map, shared by both zero routes
    assert counts.conjugations == 4
    assert sorted(counts.operators) == [(2, 2)] * 2 + [(2, 3)] * 2
    assert counts.scales == 4


def test_analyze_flags_negative_map(tmp_path, capsys):
    # diag(1, -1) conjugation choi is Hermitian but not positive
    choi = np.diag([1.0, 0.0, 0.0, -1.0])
    path = write_doc(
        tmp_path,
        "bad.json",
        {"kind": "choi", "dim_in": 2, "dim_out": 2, "payload": matrix_to_payload(choi)},
    )
    code = main(["analyze", path])
    out = capsys.readouterr().out
    assert code == 3
    assert "positivity heuristic: FAILED" in out


def test_analyze_missing_file(tmp_path, capsys):
    code = main(["analyze", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_analyze_schema_error(tmp_path, capsys):
    path = write_doc(tmp_path, "broken.json", {"kind": "soup"})
    assert main(["analyze", path]) == 2
    assert "kind" in capsys.readouterr().err


def test_analyze_rejects_zero_conjugation(tmp_path, capsys):
    # the parser realizes the map, so V = 0 fails there, with the same bytes
    path = write_doc(
        tmp_path,
        "zero.json",
        {"kind": "conjugation", "dim_in": 2, "dim_out": 3, "payload": matrix_to_payload(np.zeros((2, 3)))},
    )
    assert main(["analyze", path]) == 2
    assert capsys.readouterr() == ("", "error: conjugation by the zero operator is not a map\n")


def scaled_choi_doc(tmp_path, capsys, scale):
    """The positive definite 2x2 random-choi document of seed 3, scaled to
    spectral norm ``scale``: a strictly completely positive map, without zeros."""
    assert main(["generate", "--kind", "random-choi", "--n", "2", "--m", "2", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    choi = payload_to_matrix(doc["payload"], 4, 4)
    doc["payload"] = matrix_to_payload(scale * choi / np.linalg.norm(choi, 2))
    return write_doc(tmp_path, f"choi-{scale:g}.json", doc)


def scaled_transpose_doc(tmp_path, capsys, scale):
    """The transpose map, scaled to spectral norm ``scale``."""
    doc = {"kind": "conjugation", "dim_in": 2, "dim_out": 2, "transposed": True}
    doc["payload"] = matrix_to_payload(np.sqrt(scale) * np.eye(2))
    return write_doc(tmp_path, f"transpose-{scale:g}.json", doc)


def test_analyze_rejects_a_zero_free_map_scaled_below_the_window(tmp_path, capsys):
    # below ~1e-154 residual norms underflow to 0, so every descent end read as
    # a zero: 6 pairs and both claims Certified for a map without zeros
    path = scaled_choi_doc(tmp_path, capsys, 1e-160)
    assert main(["analyze", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: payload: spectral scale ") and "outside [1e-100, 1e+100]" in err


def test_analyze_rejects_an_all_zero_kraus_document(tmp_path, capsys):
    # the zero map, which a conjugation document with V = 0 could not give either
    path = write_doc(
        tmp_path,
        "zero.json",
        {"kind": "kraus", "dim_in": 2, "dim_out": 2, "payload": [matrix_to_payload(np.zeros((2, 2)))]},
    )
    assert main(["analyze", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "spectral scale 0.000e+00" in err


def overflowing_choi_doc(tmp_path, hermitian):
    """1e200 times the identity plus E_01, and plus E_10 when ``hermitian``:
    entries whose Frobenius norms overflow."""
    choi = np.eye(4)
    choi[0, 1] = 1.0
    choi[1, 0] = 1.0 if hermitian else 0.0
    doc = {"kind": "choi", "dim_in": 2, "dim_out": 2, "payload": matrix_to_payload(1e200 * choi)}
    return write_doc(tmp_path, f"choi-1e200-{hermitian}.json", doc)


@pytest.mark.parametrize(
    "hermitian,err",
    [
        (False, "error: choi: hermiticity\n"),
        (True, "error: payload: spectral scale 2.000e+200 is outside [1e-100, 1e+100]\n"),
    ],
)
def test_analyze_rejects_a_choi_matrix_at_1e200_without_a_warning(hermitian, err, tmp_path, capsys):
    # the Hermiticity norms used to overflow with a numpy warning, and then
    # inf <= 1e-9 * inf let the non-Hermitian matrix through to the scale window
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", overflowing_choi_doc(tmp_path, hermitian)]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("make_doc", [scaled_choi_doc, scaled_transpose_doc])
@pytest.mark.parametrize("scale", [1e-90, 1e90])
def test_analyze_verdicts_do_not_depend_on_the_scale_inside_the_window(tmp_path, capsys, make_doc, scale):
    def verdict_lines(scale):
        path = make_doc(tmp_path, capsys, scale)
        assert main(["analyze", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        return [line for line in lines if not line.startswith(("digest:", "positivity heuristic:"))]

    reference = verdict_lines(1.0)
    assert verdict_lines(scale) == reference
    assert any(line.startswith("Exposed: ") for line in reference)


def test_analyze_decodes_a_choi_document_once(tmp_path, monkeypatch, capsys):
    assert main(["generate", "--kind", "random-choi", "--n", "3", "--m", "3", "--seed", "1"]) == 0
    path = tmp_path / "choi.json"
    path.write_text(capsys.readouterr().out)
    calls = {"payload_to_matrix": 0, "_is_hermitian": 0}
    for name, module in (("payload_to_matrix", mapcert.documents), ("_is_hermitian", mapcert.maps)):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for owner in (mapcert.maps, mapcert.documents):
            if getattr(owner, name, None) is original:
                monkeypatch.setattr(owner, name, counted)
    assert main(["analyze", str(path)]) == 0
    capsys.readouterr()
    # one decode; the Hermiticity rule on the map only: its adjoint is
    # Hermitian by construction and is not validated again
    assert calls == {"payload_to_matrix": 1, "_is_hermitian": 1}


@pytest.mark.parametrize(
    "kind,payload",
    [
        # every entry is finite; the block products V[i, k] conj(V[j, l]) overflow
        ("conjugation", [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
        ("kraus", [[[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]),
    ],
)
def test_analyze_reports_an_overflowing_payload_on_payload(kind, payload, tmp_path, capsys):
    doc = {"kind": kind, "dim_in": 2, "dim_out": 2, "payload": payload}
    if kind == "conjugation":
        doc["transposed"] = True
    path = write_doc(tmp_path, f"{kind}-overflow.json", doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", path]) == 2
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: payload:") and "1e+100" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["analyze", "DOC", "--seed", "-1"], "--seed"),
        (["analyze", "DOC", "--starts", "0"], "--starts"),
        (["analyze", "DOC", "--starts", "-2"], "--starts"),
        (["sweep", "--seed", "-3"], "--seed"),
        (["generate", "--kind", "conjugation", "--n", "2", "--m", "2", "--seed", "-1"], "--seed"),
    ],
)
def test_flag_errors_are_reported_before_any_output(argv, flag, tmp_path, capsys):
    argv = [transpose_doc(tmp_path) if arg == "DOC" else arg for arg in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}:" in err


def test_analyze_rejects_bad_tol(tmp_path, capsys):
    path = transpose_doc(tmp_path)
    for tol in ("-1", "inf", "nan", "1", "2"):
        code = main(["analyze", path, "--tol", tol])
        out, err = capsys.readouterr()
        assert code == 2, tol
        assert out == "" and "rank_rel_tol" in err, tol


def test_sweep_small_grid(capsys):
    code = main(["sweep", "--n-range", "2", "--m-range", "2..3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rank-2 count check" in out
    assert "dimension sweep" in out
    # n=2, m=3, rank 2: input rule 10, output rule 9
    assert any(line.split()[:6] == ["2", "3", "2", "10", "10", "9"] for line in out.splitlines())


def test_sweep_is_deterministic(capsys):
    argv = ["sweep", "--n-range", "2", "--m-range", "2", "--seed", "5"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_sweep_json_report(tmp_path, capsys):
    report_path = tmp_path / "sweep.json"
    code = main(["sweep", "--n-range", "2", "--m-range", "2", "--json", str(report_path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(report_path.read_bytes())
    assert set(doc) == {"sweep", "tool_version", "seed", "tolerances"}
    # one record per grid cell: the rank-2 check's cell is listed once
    assert [(r["n"], r["m"], r["rank_v"]) for r in doc["sweep"]] == sweep_cells([2], [2])
    assert all(r["agrees_with"] != "neither" for r in doc["sweep"])


def test_sweep_measures_each_cell_once(monkeypatch, capsys):
    calls = []
    measure = mapcert.experiments.run_dimension_sweep

    def counted(*args, **kwargs):
        calls.append(args[:3])
        return measure(*args, **kwargs)

    monkeypatch.setattr(mapcert.experiments, "run_dimension_sweep", counted)
    monkeypatch.setattr(mapcert.cli, "run_dimension_sweep", counted)
    assert main(["sweep", "--n-range", "2", "--m-range", "2..3"]) == 0
    capsys.readouterr()
    # the rank-2 check's reports stand in for the grid's (2, m, 2) rows
    assert sorted(calls) == [(2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2)]


def test_default_sweep_rows_are_the_default_cells(monkeypatch, capsys):
    def report(n, m, rank_v, seed=0, tol=None):
        return SweepReport(n, m, rank_v, 0, 0, 0, 0, BOTH_RULES, seed)

    monkeypatch.setattr(mapcert.experiments, "run_dimension_sweep", report)
    monkeypatch.setattr(mapcert.cli, "run_dimension_sweep", report)
    assert main(["sweep"]) == 0
    rank2_part, grid_part = capsys.readouterr().out.split("dimension sweep")

    def cells(text):
        return [tuple(int(t) for t in line.split()[:3]) for line in text.splitlines() if line[:3].strip().isdigit()]

    assert cells(rank2_part) == [(2, m, 2) for m in (2, 3, 4, 5)]
    assert cells(grid_part) == sweep_cells()


@pytest.mark.parametrize(
    "error",
    [
        CrossCheckError("analytic strong dim 9 != harvested 8"),
        OracleUnstable("oracle dimension kept changing"),
        np.linalg.LinAlgError("SVD did not converge"),
    ],
)
def test_internal_failure_exits_5(error, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(mapcert.cli, "run_dimension_sweep", fail)
    assert main(["sweep", "--n-range", "3", "--m-range", "2"]) == 5
    assert capsys.readouterr().err.startswith("error: ")


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: ``write`` or ``flush`` raises BrokenPipeError."""

    def __init__(self, failing):
        super().__init__()
        self._failing = failing

    def write(self, text):
        if self._failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self._failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")


# write: an unbuffered stdout fails at the first print; flush: a buffered one
# fails when main flushes what analyze printed
@pytest.mark.parametrize("failing", ["write", "flush"])
def test_analyze_into_a_closed_pipe_exits_141_silently(failing, tmp_path, monkeypatch, capsys):
    path = transpose_doc(tmp_path)
    monkeypatch.setattr(sys, "stdout", ClosedPipe(failing))
    assert main(["analyze", path]) == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_analyze_into_a_closed_pipe_process(unbuffered, tmp_path):
    # the pipe's read end is closed before the process starts, as after
    # `mapcert analyze DOC | head -1` once head has exited
    src = Path(mapcert.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "mapcert.cli", "analyze", transpose_doc(tmp_path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_sweep_rejects_bad_range(capsys):
    assert main(["sweep", "--n-range", "3..2"]) == 2
    capsys.readouterr()


def test_generate_conjugation_round_trip(capsys):
    code = main(["generate", "--kind", "conjugation", "--n", "2", "--m", "3", "--rank", "1"])
    out = capsys.readouterr().out
    assert code == 0
    doc = parse_map_file(out)
    assert (doc.kind, doc.dim_in, doc.dim_out) == ("conjugation", 2, 3)
    assert doc.transposed is True
    assert doc.meta["rank"] == "1"


def test_generate_is_deterministic(capsys):
    argv = ["generate", "--kind", "random-cp", "--n", "2", "--m", "2", "--seed", "9"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_generate_untransposed(capsys):
    code = main(
        ["generate", "--kind", "conjugation", "--n", "2", "--m", "2", "--no-transposed"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert parse_map_file(out).transposed is False


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--kind", "random-cp", "--n", "2", "--m", "2", "--rank", "1"],
        ["generate", "--kind", "random-choi", "--n", "2", "--m", "2", "--kraus", "2"],
        ["generate", "--kind", "random-choi", "--n", "2", "--m", "2", "--transposed"],
        ["generate", "--kind", "conjugation", "--n", "0", "--m", "2"],
        ["generate", "--kind", "conjugation", "--n", "2", "--m", "3", "--rank", "5"],
    ],
)
def test_generate_flag_validation(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err


def test_generate_then_analyze_pipeline(tmp_path, capsys):
    code = main(["generate", "--kind", "random-choi", "--n", "2", "--m", "2", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    path = tmp_path / "gen.json"
    path.write_text(out)
    # a Ginibre choi matrix is PSD, so its map is completely positive and
    # generically has no zeros at all
    code = main(["analyze", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Optimal: Inconclusive" in out


def test_generate_cp_then_analyze(tmp_path, capsys):
    main(["generate", "--kind", "random-cp", "--n", "2", "--m", "3", "--seed", "1"])
    doc_text = capsys.readouterr().out
    path = tmp_path / "cp.json"
    path.write_text(doc_text)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "positivity heuristic: passed" in out
