"""End-to-end exercises of the mapcert command line through main()."""

import argparse
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
import mapcert.maps
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


def _parser_state(parser):
    """The help text of a parser and of each subparser, with every default its actions and
    ``set_defaults`` give."""
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return parser.format_help(), {
        name: (sub.format_help(), {a.dest: a.default for a in sub._actions}, dict(sub._defaults))
        for name, sub in subparsers.choices.items()
    }


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    # main parses with the one parser of the process: a sequence of calls through it prints the
    # bytes and returns the codes of the same calls through a freshly built parser each
    path = transpose_doc(tmp_path)
    calls = [
        ["analyze", path, "--seed", "3"],
        ["analyze", path, "--seed", "-1"],
        ["--version"],
        ["sweep", "--n-range", "2", "--m-range", "2"],
        ["analyze", path],
    ]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr()

    shared = mapcert.cli.build_parser()
    assert mapcert.cli.build_parser() is shared
    through_shared = [run(argv) for argv in calls]
    assert [code for code, _ in through_shared] == [0, 2, 0, 0, 0]
    monkeypatch.setattr(mapcert.cli, "build_parser", mapcert.cli.build_parser.__wrapped__)
    assert [run(argv) for argv in calls] == through_shared
    assert _parser_state(shared) == _parser_state(mapcert.cli.build_parser())


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
    maps built, MapOperators constructed (dims), 2-norms, np.linalg.svd calls
    and spectra: np.linalg.eigh calls of side nm for a constructed n x m map,
    which in these tests (n, m <= 3 < nm) are the eigendecompositions of a
    block matrix or of its partial transpose."""

    def __init__(self, monkeypatch):
        self.conjugations, self.operators, self.scales, self.svds, self.spectra = 0, [], 0, 0, 0
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
        norm, svd, eigh = np.linalg.norm, np.linalg.svd, np.linalg.eigh

        def counted_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                self.scales += 1
            return norm(x, ord, *args, **kwargs)

        def counted_svd(*args, **kwargs):
            self.svds += 1
            return svd(*args, **kwargs)

        def counted_eigh(a, *args, **kwargs):
            if a.shape[-1] in {n * m for n, m in self.operators}:
                self.spectra += 1
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)


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
    # the map, built once (its adjoint is a block array, not a map); no
    # 2-norm: the scale of the positivity heuristic and the zero search is
    # read from the block matrix's one eigh, and the route decision adds the
    # eigh of its partial transpose (rank 1: a transposed conjugation); SVDs:
    # the Kraus route's generic rank of M(y) and the common kernel of its
    # stack (empty at rank V = n), its row-kernel cuts of 4 and 4 of its 16
    # points (the admitted count reaches the ceiling n(nm - 1) = 10 at the
    # 6th point, so the last two points of the second cut are not offered and
    # no third cut runs; no cut outruns the window), then weak span and
    # strong span;
    # none for irreducibility: Phi(1) is decomposed by one m x m eigh, and the
    # eigvalsh of the compressed map's Gram operator proves its commutant
    # trivial, so no commutant SVD runs
    assert counts.conjugations == 1
    assert counts.operators == [(2, 3)]
    assert counts.scales == 0
    assert counts.spectra == 2
    assert counts.svds == 6


def test_sweep_prepares_each_cell_map_once(monkeypatch, capsys):
    counts = PreparedMapCounts(monkeypatch)
    assert main(["sweep", "--n-range", "2", "--m-range", "2..3"]) == 0
    capsys.readouterr()
    # four cells; each builds one conjugation map, shared by both zero routes,
    # and decomposes its block matrix once, for the scale
    assert counts.conjugations == 4
    assert sorted(counts.operators) == [(2, 2)] * 2 + [(2, 3)] * 2
    assert counts.scales == 0
    assert counts.spectra == 4


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


@pytest.mark.parametrize("entry", [10**400, -(10**400)], ids=["1e400", "-1e400"])
def test_analyze_rejects_an_integer_entry_beyond_the_float_range_process(entry, tmp_path):
    # float() of such a JSON integer raises OverflowError; the process exits 2 naming the
    # entry, without a traceback
    doc = {"kind": "conjugation", "dim_in": 2, "dim_out": 2, "payload": matrix_to_payload(np.eye(2))}
    doc["payload"][0][0][0] = entry
    src = Path(mapcert.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "mapcert.cli", "analyze", write_doc(tmp_path, "huge.json", doc)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: payload[0][0]: entries must be finite\n")


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
        (["analyze", "DOC", "--tol", "2"], "--tol"),
        (["analyze", "DOC", "--tol", "nan"], "--tol"),
        (["analyze", "MISSING", "--tol", "2"], "--tol"),  # the flag error wins over the missing file
        (["generate", "--kind", "random-cp", "--n", "2", "--m", "2", "--kraus", "0"], "--kraus"),
        (["generate", "--kind", "random-cp", "--n", "2", "--m", "2", "--kraus", "-1"], "--kraus"),
        (["generate", "--kind", "conjugation", "--n", "2", "--m", "2", "--rank", "0"], "--rank"),
        (["sweep", "--n-range", "1"], "--n-range"),
        (["sweep", "--m-range", "1..3"], "--m-range"),
    ],
)
def test_flag_errors_are_reported_before_any_output(argv, flag, tmp_path, capsys):
    docs = {"DOC": transpose_doc(tmp_path), "MISSING": str(tmp_path / "missing.json")}
    assert main([docs.get(arg, arg) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}:" in err


def test_generate_rank_above_the_dimensions_names_the_flag(capsys):
    assert main(["generate", "--kind", "conjugation", "--n", "2", "--m", "2", "--rank", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --rank ")


def test_reports_record_all_four_tolerances(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["analyze", transpose_doc(tmp_path), "--tol", "1e-7", "--json", str(report_path)]) == 0
    assert json.loads(report_path.read_bytes())["tolerances"] == {
        "convergence_tol": 1e-12, "max_iters": 500, "rank_rel_tol": 1e-7, "residual_rel_tol": 1e-9
    }
    assert main(["sweep", "--n-range", "2", "--m-range", "2", "--json", str(report_path)]) == 0
    assert json.loads(report_path.read_bytes())["tolerances"] == {
        "convergence_tol": 1e-12, "max_iters": 500, "rank_rel_tol": 1e-8, "residual_rel_tol": 1e-9
    }
    capsys.readouterr()


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
    # three Kraus operators (the default) with m = 3 on M_2: the P^1 pencil finds the exact
    # zeros, whose weak span is the ceiling nm - rank C = 3 of a CP map (the harvest admitted
    # inexact pairs spanning 6 there, an internal failure)
    assert main(["analyze", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "positivity: proven (C is positive semidefinite)" in out
    assert "zero pairs kept: 3 (saturated: yes)" in out
    assert "Optimal: Inconclusive  (weak span 3 / 6)" in out
    assert err == ""


@pytest.mark.parametrize("transposed", [False, True])
def test_a_conjugation_analyzes_alike_whatever_document_writes_it(tmp_path, monkeypatch, capsys, transposed):
    # the zero route is read off the block matrix's spectrum, not the document kind:
    # a -> V^H a V as a conjugation, Choi or one-operator Kraus (K = V^H) document, and
    # a -> V^H a^T V as a conjugation or Choi document (through the partial transpose);
    # every one runs the Kraus route on the one operator K = V^H read back from the top eigenpair
    routes = []
    kraus_zeros = mapcert.zeros._kraus_zeros

    def recorded(phi, stack, transposed, tol):
        zs = kraus_zeros(phi, stack, transposed, tol)
        routes.append((stack.shape, transposed, max(p.residual for p in zs.pairs) / mapcert.maps.choi_spectral_scale(phi)))
        return zs

    def no_harvest(*args, **kwargs):
        raise AssertionError("the harvest ran")

    monkeypatch.setattr(mapcert.zeros, "_kraus_zeros", recorded)
    monkeypatch.setattr(mapcert.zeros, "harvest_zeros", no_harvest)
    v = mapcert.experiments.random_rank_operator(3, 3, 2, seed=4)
    choi = mapcert.maps.from_conjugation(v, transposed).choi
    docs = [
        {"kind": "conjugation", "dim_in": 3, "dim_out": 3, "payload": matrix_to_payload(v), "transposed": transposed},
        {"kind": "choi", "dim_in": 3, "dim_out": 3, "payload": matrix_to_payload(choi)},
    ]
    if not transposed:
        docs.append({"kind": "kraus", "dim_in": 3, "dim_out": 3, "payload": [matrix_to_payload(v.conj().T)]})
    outputs = []
    for index, doc in enumerate(docs):
        report = tmp_path / f"report-{index}.json"
        assert main(["analyze", write_doc(tmp_path, f"doc-{index}.json", doc), "--json", str(report)]) == 0
        lines = capsys.readouterr().out.splitlines()
        summary = json.loads(report.read_text())
        outputs.append((lines[3:], summary["zero_set_summary"], summary["certificates"]))
    assert [(shape, flag) for shape, flag, _ in routes] == [((1, 3, 3), transposed)] * len(docs)
    assert all(residual <= 1e-12 for _, _, residual in routes)
    assert all(output == outputs[0] for output in outputs)
    # the Kraus route on the document's own K = V^H, and the weak rule of conjugations
    exact = mapcert.zeros.analytic_zeros_conjugation(v, transposed)
    weak = 9 if transposed else 8
    assert outputs[0][1] == {
        "pairs": len(exact.pairs),
        "weak_span_dim": weak,
        "strong_span_dim": mapcert.zeros.strong_span_dim(exact),
        "saturated": True,
    }
    assert outputs[0][0][2] == f"Optimal: {'Certified' if transposed else 'Inconclusive'}  (weak span {weak} / 9)"


def test_a_co_cp_map_whose_harvest_exceeds_the_strong_ceiling_exits_5(tmp_path, capsys):
    # the partial transpose of a CP map with four Kraus operators on 3x3 (k > m at n >= 3: the
    # harvest runs), as a Choi document: its 18 harvested pairs span 18 strong directions, above
    # the co-CP ceiling n (nm - rank C^G) = 15, so no verdict is printed (it read weak span 9 / 9)
    cp = mapcert.maps.cp_map_from_kraus(mapcert.experiments.random_kraus_operators(3, 3, 4, seed=0))
    choi = cp.choi.reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).reshape(9, 9)
    doc = {"kind": "choi", "dim_in": 3, "dim_out": 3, "payload": matrix_to_payload(choi)}
    assert main(["analyze", write_doc(tmp_path, "co-cp.json", doc)]) == 5
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "positivity: proven (C^G is positive semidefinite)"
    assert err == (
        "error: strong span 18 exceeds the strong ceiling 15 = n(nm - rank C^G) of a co-CP map; "
        "the zero set contains non-zeros or the rank tolerance is off\n"
    )


def test_a_cp_map_analyzes_within_the_weak_ceiling_that_its_harvest_exceeds(tmp_path, capsys):
    # three Kraus operators on 3x3: the harvest admits inexact pairs that span all
    # of C^9, where every genuine zero lies in the 6-dimensional kernel of C
    assert main(["generate", "--kind", "random-cp", "--n", "3", "--m", "3", "--kraus", "3", "--seed", "5"]) == 0
    text = capsys.readouterr().out
    phi = mapcert.documents.to_map_operator(parse_map_file(text))
    with pytest.raises(CrossCheckError) as raised:
        mapcert.certify.certify_optimal(phi, mapcert.zeros.harvest_zeros(phi, seed=0))
    assert str(raised.value) == (
        "weak span 9 exceeds the weak ceiling 6 = nm - rank C of a completely positive map; "
        "the zero set contains non-zeros or the rank tolerance is off"
    )
    # analyze takes the line pencils on the Kraus stack read off C: exact zeros, at the ceiling
    path = tmp_path / "cp.json"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 0
    out, err = capsys.readouterr()
    assert "Optimal: Inconclusive  (weak span 6 / 9)" in out
    assert "Exposed: Inconclusive  (strong span 18 / 24)" in out
    assert err == ""


def test_a_conjugation_is_saturated_whatever_the_harvest_budget(tmp_path, capsys):
    # --starts budgets the harvest, which a conjugation no longer runs
    assert main(["analyze", transpose_doc(tmp_path), "--starts", "5"]) == 0
    assert "zero pairs kept: 6 (saturated: yes)" in capsys.readouterr().out


def test_a_zero_free_map_is_saturated_whatever_the_harvest_budget(tmp_path, capsys):
    # a positive definite block matrix proves the empty zero set, which no start budget changes
    assert main(["generate", "--kind", "random-choi", "--n", "2", "--m", "3", "--seed", "2"]) == 0
    path, report = tmp_path / "choi.json", tmp_path / "report.json"
    path.write_text(capsys.readouterr().out)
    assert main(["analyze", str(path), "--starts", "5", "--json", str(report)]) == 0
    assert "zero pairs kept: 0 (saturated: yes)" in capsys.readouterr().out
    assert json.loads(report.read_bytes())["zero_set_summary"]["saturated"] is True


def test_a_block_matrix_of_rank_1_only_at_a_coarse_tol_is_harvested(tmp_path, capsys):
    # C = vv* + 1e-4 ww* has rank 1 under --tol 1e-3, but the analytic route on the V of vv*
    # admits none of its pairs (residuals near 1e-4 * scale); the harvest finds the zeros in
    # ker C, which span nm - 2 = 4
    rng = np.random.default_rng(11)
    v, w = (rng.standard_normal(6) + 1j * rng.standard_normal(6) for _ in range(2))
    v /= np.linalg.norm(v)
    w -= (v.conj() @ w) * v
    w /= np.linalg.norm(w)
    choi = np.outer(v, v.conj()) + 1e-4 * np.outer(w, w.conj())
    doc = write_doc(tmp_path, "doc.json", {"kind": "choi", "dim_in": 2, "dim_out": 3, "payload": matrix_to_payload(choi)})
    report = tmp_path / "report.json"
    assert main(["analyze", doc, "--tol", "1e-3", "--json", str(report)]) == 0
    summary = json.loads(report.read_text())["zero_set_summary"]
    assert summary["saturated"] and summary["pairs"] > 0 and summary["weak_span_dim"] == 4
    assert "(saturated: yes)" in capsys.readouterr().out


def heuristic_never_runs(*args, **kwargs):
    raise AssertionError("the positivity heuristic ran")


def generated_doc(tmp_path, capsys, name, *argv):
    assert main(["generate", *argv]) == 0
    path = tmp_path / name
    path.write_text(capsys.readouterr().out)
    return str(path)


def test_analyze_proves_cp_and_co_cp_maps_positive_without_the_heuristic(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(mapcert.cli, "is_positive_heuristic", heuristic_never_runs)
    prepared, to_map_operator = [], mapcert.cli.to_map_operator

    def recorded(doc):
        prepared.append(to_map_operator(doc))
        return prepared[-1]

    monkeypatch.setattr(mapcert.cli, "to_map_operator", recorded)
    docs = {
        "C": [
            generated_doc(tmp_path, capsys, "cp.json", "--kind", "random-cp", "--n", "2", "--m", "3", "--seed", "2"),
            generated_doc(tmp_path, capsys, "conj.json", "--kind", "conjugation", "--n", "2", "--m", "3", "--no-transposed"),
            generated_doc(tmp_path, capsys, "choi.json", "--kind", "random-choi", "--n", "4", "--m", "3", "--seed", "1"),
        ],
        "C^G": [generated_doc(tmp_path, capsys, "tconj.json", "--kind", "conjugation", "--n", "3", "--m", "3")],
    }
    for block, paths in docs.items():
        for path in paths:
            assert main(["analyze", path]) == 0
            out, err = capsys.readouterr()
            assert out.splitlines()[2] == f"positivity: proven ({block} is positive semidefinite)"
            assert out.splitlines()[-1].startswith(
                f"note: sufficient condition only; positivity of the input map is proven ({block} is positive semidefinite)"
            )
            assert err == ""
    # the positive-definite Choi matrix is zero-free: no strong ceiling is checked, so the
    # partial transpose is never decomposed
    assert np.linalg.eigvalsh(prepared[2].choi)[0] > 0
    assert "_partial_transpose_spectrum" not in prepared[2].__dict__


def counted_heuristic(monkeypatch):
    calls = []
    heuristic = mapcert.cli.is_positive_heuristic

    def counted(phi, seed=0):
        calls.append(phi)
        return heuristic(phi, seed=seed)

    monkeypatch.setattr(mapcert.cli, "is_positive_heuristic", counted)
    return calls


def test_the_heuristic_decides_a_negated_cp_map(tmp_path, monkeypatch, capsys):
    calls = counted_heuristic(monkeypatch)
    cp = mapcert.maps.cp_map_from_kraus(mapcert.experiments.random_kraus_operators(2, 3, 2, seed=3))
    doc = {"kind": "choi", "dim_in": 2, "dim_out": 3, "payload": matrix_to_payload(-cp.choi)}
    assert main(["analyze", write_doc(tmp_path, "negated.json", doc)]) == 3
    out = capsys.readouterr().out
    assert len(calls) == 1
    assert out.splitlines()[2].startswith("positivity heuristic: FAILED (worst value ")


def test_the_heuristic_decides_the_choi_map(tmp_path, monkeypatch, capsys):
    # Choi's map Phi[2,0,1] on M_3, X -> diag(2 x11 + x33, x11 + 2 x22, x22 + 2 x33) - X: positive, but
    # neither CP nor co-CP, so neither C nor its partial transpose proves it
    weights = np.array([[2, 1, 0], [0, 2, 1], [1, 0, 2]])  # weights[i, k]: the coefficient of x_ii in Phi(X)_kk
    omega = np.eye(3).ravel()
    choi = np.diag(weights.ravel()) - np.outer(omega, omega)
    phi = mapcert.maps.MapOperator(3, 3, choi)
    assert phi._spectrum[0][0] < -0.5 and phi._partial_transpose_spectrum[0][0] < -0.5
    calls = counted_heuristic(monkeypatch)
    doc = {"kind": "choi", "dim_in": 3, "dim_out": 3, "payload": matrix_to_payload(choi)}
    assert main(["analyze", write_doc(tmp_path, "choi-map.json", doc)]) == 0
    out = capsys.readouterr().out
    assert len(calls) == 1
    assert out.splitlines()[2].startswith("positivity heuristic: passed (worst value ")
    assert out.splitlines()[-1] == (
        "note: sufficient condition only; positivity of the input map is assumed "
        "(verified heuristically at best, never proven)"
    )


@pytest.mark.parametrize("tol", ["1e-8", "1e-10"])
def test_a_negative_eigenvalue_within_the_psd_bar_lowers_no_ceiling(tmp_path, capsys, tol):
    # the identity map on M_2 (C = |omega><omega|, scale 2) with the eigenvalue of the product vector
    # e_0 (x) e_1 moved to -1e-9 = -scale / 2e9: proven CP, and under --tol 1e-10 that eigenvalue's
    # modulus is above the rank cut, yet rank C stays 1, so the zeros' weak span 3 meets nm - rank C
    omega, product = np.eye(2).ravel(), np.eye(4)[1]
    choi = np.outer(omega, omega) - 1e-9 * np.outer(product, product)
    doc = {"kind": "choi", "dim_in": 2, "dim_out": 2, "payload": matrix_to_payload(choi)}
    assert main(["analyze", write_doc(tmp_path, "edge.json", doc), "--tol", tol]) == 0
    out = capsys.readouterr().out
    assert "positivity: proven (C is positive semidefinite)" in out
    assert "Optimal: Inconclusive  (weak span 3 / 4)" in out


@pytest.mark.parametrize("depth, proven", [(0.5e-9, True), (2e-9, False)])
def test_a_choi_matrix_negative_past_the_pass_threshold_is_not_proven(tmp_path, monkeypatch, capsys, depth, proven):
    # the PSD block matrix of a -> a + Tr(a) 1 on M_2 (eigenvalues 3, 1, 1, 1), with its singlet
    # eigenvalue moved to -depth * scale; the partial transpose has eigenvalue about -1/2 there,
    # and product vectors overlap the singlet by at most 1/2, so the map stays positive
    omega, singlet = np.eye(2).ravel(), np.array([0, 1, -1, 0]) / np.sqrt(2)
    choi = np.outer(omega, omega) + np.eye(4) - (1 + 3 * depth) * np.outer(singlet, singlet)
    assert np.linalg.eigvalsh(choi)[0] == pytest.approx(-3 * depth, rel=1e-3)
    calls = counted_heuristic(monkeypatch)
    doc = {"kind": "choi", "dim_in": 2, "dim_out": 2, "payload": matrix_to_payload(choi)}
    assert main(["analyze", write_doc(tmp_path, "edge.json", doc)]) == 0
    line = capsys.readouterr().out.splitlines()[2]
    if proven:
        assert (len(calls), line) == (0, "positivity: proven (C is positive semidefinite)")
    else:
        assert len(calls) == 1 and line.startswith("positivity heuristic: passed (worst value ")
