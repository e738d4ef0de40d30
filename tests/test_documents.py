import json
from dataclasses import asdict

import numpy as np
import pytest

from mapcert.certify import certify_optimal
from mapcert.documents import (
    CertificateDocument,
    MapDocument,
    certificate_to_record,
    content_digest,
    matrix_to_payload,
    parse_certificate_document,
    parse_map_file,
    payload_to_matrix,
    render_certificate_document,
    render_map_document,
    to_map_operator,
    zero_set_summary,
)
from mapcert.errors import ParseError, SchemaError, ZeroOperator
from mapcert.linalg import DEFAULT_TOL
from mapcert.maps import MapOperator, _cp_rank, apply, choi_spectral_scale, transpose_map
from mapcert.zeros import analytic_zeros_conjugation, strong_span_dim, weak_span_dim


def conjugation_doc(transposed=True):
    return MapDocument(
        kind="conjugation",
        dim_in=2,
        dim_out=2,
        payload=matrix_to_payload(np.eye(2)),
        transposed=transposed,
    )


def test_matrix_payload_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.array_equal(payload_to_matrix(matrix_to_payload(m), 3, 4), m)


@pytest.mark.parametrize("transposed", [True, False])
def test_conjugation_document_round_trip(transposed):
    doc = conjugation_doc(transposed)
    parsed = parse_map_file(render_map_document(doc))
    assert parsed == doc


def test_kraus_document_round_trip():
    rng = np.random.default_rng(1)
    ops = [rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)) for _ in range(2)]
    doc = MapDocument(
        kind="kraus",
        dim_in=2,
        dim_out=3,
        payload=[matrix_to_payload(k) for k in ops],
        meta={"label": "sample"},
    )
    parsed = parse_map_file(render_map_document(doc))
    assert parsed == doc
    assert _cp_rank(to_map_operator(parsed)) is not None


def test_choi_document_round_trip():
    phi = transpose_map(2)
    doc = MapDocument(kind="choi", dim_in=2, dim_out=2, payload=matrix_to_payload(phi.choi))
    back = to_map_operator(parse_map_file(render_map_document(doc)))
    assert np.allclose(back.choi, phi.choi)


def test_digest_is_stable_and_content_sensitive():
    doc = conjugation_doc()
    assert content_digest(doc) == content_digest(conjugation_doc())
    other = MapDocument(
        kind="conjugation",
        dim_in=2,
        dim_out=2,
        payload=matrix_to_payload(2 * np.eye(2)),
        transposed=True,
    )
    assert content_digest(doc) != content_digest(other)
    # the digest pins the transposed flag too, not just the matrix
    assert content_digest(doc) != content_digest(conjugation_doc(transposed=False))


def test_rendering_is_canonical():
    doc = conjugation_doc()
    blob = render_map_document(doc)
    assert blob.endswith(b"\n")
    assert b" " not in blob.strip(b"\n")


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError, match="line 1"):
        parse_map_file(b"{not json")
    with pytest.raises(ParseError, match="UTF-8"):
        parse_map_file(b"\xff\xfe")


def field_of(err):
    return err.value.field


def test_parse_rejects_structural_problems():
    with pytest.raises(SchemaError) as err:
        parse_map_file(b"[1,2]")
    assert field_of(err) == "document"
    with pytest.raises(SchemaError) as err:
        parse_map_file(json.dumps({"kind": "soup", "dim_in": 2, "dim_out": 2, "payload": []}))
    assert field_of(err) == "kind"
    with pytest.raises(SchemaError) as err:
        parse_map_file(
            json.dumps({"kind": "choi", "dim_in": 2, "dim_out": 2, "payload": [], "extra": 1})
        )
    assert field_of(err) == "extra"


def test_parse_rejects_bad_dimensions():
    base = {"kind": "conjugation", "payload": matrix_to_payload(np.eye(2))}
    with pytest.raises(SchemaError) as err:
        parse_map_file(json.dumps({**base, "dim_in": 0, "dim_out": 2}))
    assert field_of(err) == "dim_in"
    # booleans are ints in Python; the schema must still refuse them
    with pytest.raises(SchemaError) as err:
        parse_map_file(json.dumps({**base, "dim_in": 2, "dim_out": True}))
    assert field_of(err) == "dim_out"


def test_parse_rejects_bad_payloads():
    with pytest.raises(SchemaError) as err:
        parse_map_file(json.dumps({"kind": "conjugation", "dim_in": 2, "dim_out": 2}))
    assert field_of(err) == "payload"
    doc = {"kind": "conjugation", "dim_in": 2, "dim_out": 2, "payload": [[[1.0, 0.0]]]}
    with pytest.raises(SchemaError, match="2 rows"):
        parse_map_file(json.dumps(doc))
    doc["payload"] = [[[1.0, 0.0]], [[0.0, 0.0]]]
    with pytest.raises(SchemaError) as err:
        parse_map_file(json.dumps(doc))
    assert field_of(err) == "payload[0]"
    doc["payload"] = [[[1.0, 0.0], [0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    with pytest.raises(SchemaError) as err:
        parse_map_file(json.dumps(doc))
    assert field_of(err) == "payload[0][1]"
    doc["payload"] = [[[1.0, 0.0], ["a", 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    with pytest.raises(SchemaError, match="number pairs"):
        parse_map_file(json.dumps(doc))


def test_parse_rejects_nonfinite_entries():
    doc = {
        "kind": "conjugation",
        "dim_in": 2,
        "dim_out": 2,
        "payload": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e999, 0.0]]],
    }
    with pytest.raises(SchemaError, match="finite"):
        parse_map_file(json.dumps(doc))


def test_parse_rejects_misplaced_transposed_flag():
    phi = transpose_map(2)
    doc = {
        "kind": "choi",
        "dim_in": 2,
        "dim_out": 2,
        "payload": matrix_to_payload(phi.choi),
        "transposed": True,
    }
    with pytest.raises(SchemaError) as err:
        parse_map_file(json.dumps(doc))
    assert field_of(err) == "transposed"


def test_parse_defaults_transposed_for_conjugation():
    doc = {"kind": "conjugation", "dim_in": 2, "dim_out": 2, "payload": matrix_to_payload(np.eye(2))}
    assert parse_map_file(json.dumps(doc)).transposed is False


def test_parse_rejects_bad_meta():
    doc = {
        "kind": "conjugation",
        "dim_in": 2,
        "dim_out": 2,
        "payload": matrix_to_payload(np.eye(2)),
        "meta": {"seed": 3},
    }
    with pytest.raises(SchemaError) as err:
        parse_map_file(json.dumps(doc))
    assert field_of(err) == "meta"


def test_parse_rejects_non_hermitian_choi():
    bad = np.zeros((4, 4))
    bad[0, 1] = 1.0
    doc = {"kind": "choi", "dim_in": 2, "dim_out": 2, "payload": matrix_to_payload(bad)}
    with pytest.raises(SchemaError, match="hermiticity"):
        parse_map_file(json.dumps(doc))


@pytest.mark.parametrize("dim_in, dim_out", [(1, 2), (2, 2)])
@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_parse_hermiticity_rule_is_scale_free(dim_in, dim_out, scale):
    # H + 1e-5 A, A real and not symmetric: not Hermitian at any scale, by the
    # rule MapOperator applies too
    rng = np.random.default_rng(4)
    g = rng.standard_normal((dim_in * dim_out,) * 2) + 1j * rng.standard_normal((dim_in * dim_out,) * 2)
    choi = scale * (g + g.conj().T + 1e-5 * np.triu(rng.standard_normal(g.shape)))
    doc = {"kind": "choi", "dim_in": dim_in, "dim_out": dim_out, "payload": matrix_to_payload(choi)}
    with pytest.raises(SchemaError, match="hermiticity"):
        parse_map_file(json.dumps(doc))
    with pytest.raises(ValueError):
        MapOperator(dim_in, dim_out, choi)


def test_conjugation_document_realizes_the_right_map():
    doc = conjugation_doc(transposed=True)
    phi = to_map_operator(doc)
    a = np.array([[1, 2j], [-2j, 5]], dtype=complex)
    assert np.allclose(apply(phi, a), a.T)
    # realized once: every caller shares the memoized map
    assert to_map_operator(doc) is phi


@pytest.mark.parametrize("transposed", [True, False])
def test_parse_rejects_zero_conjugation(transposed):
    doc = {
        "kind": "conjugation",
        "dim_in": 2,
        "dim_out": 3,
        "payload": matrix_to_payload(np.zeros((2, 3))),
        "transposed": transposed,
    }
    with pytest.raises(ZeroOperator):
        parse_map_file(json.dumps(doc))


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("kraus", [matrix_to_payload(np.zeros((2, 2)))]),
        ("choi", matrix_to_payload(np.zeros((4, 4)))),
        ("choi", matrix_to_payload(1e-160 * np.eye(4))),
        ("choi", matrix_to_payload(1e150 * np.eye(4))),
        ("conjugation", matrix_to_payload(1e-51 * np.eye(2))),
    ],
)
def test_parse_rejects_a_spectral_scale_outside_the_window(kind, payload):
    doc = {"kind": kind, "dim_in": 2, "dim_out": 2, "payload": payload}
    with pytest.raises(SchemaError, match="spectral scale") as info:
        parse_map_file(json.dumps(doc))
    assert info.value.field == "payload"


@pytest.mark.parametrize("scale", [1e-99, 1e99])
def test_parse_accepts_a_spectral_scale_inside_the_window(scale):
    doc = {"kind": "choi", "dim_in": 2, "dim_out": 2, "payload": matrix_to_payload(scale * np.eye(4))}
    assert np.isclose(choi_spectral_scale(to_map_operator(parse_map_file(json.dumps(doc)))), scale)


def test_certificate_document_round_trip():
    phi = transpose_map(2)
    zs = analytic_zeros_conjugation(np.eye(2), transposed=True)
    cert = certify_optimal(phi, zs)
    doc = CertificateDocument(
        input_digest=content_digest(conjugation_doc()),
        certificates=[certificate_to_record(cert)],
        zero_set_summary=zero_set_summary(zs, weak_span_dim(zs), strong_span_dim(zs)),
        tool_version="0.0-test",
        seed=0,
        tolerances=asdict(DEFAULT_TOL),
    )
    blob = render_certificate_document(doc)
    assert parse_certificate_document(blob) == doc
    record = json.loads(blob)
    assert record["certificates"][0]["verdict"] == "Certified"
    assert record["zero_set_summary"]["weak_span_dim"] == 4


def certificate_record():
    return {
        "input_digest": "0" * 64,
        "certificates": [],
        "zero_set_summary": {},
        "tool_version": "0.0-test",
        "seed": 0,
        "tolerances": asdict(DEFAULT_TOL),
    }


@pytest.mark.parametrize(
    "change, field",
    [
        ({"sweep": None, "bogus": 1}, "sweep"),
        ({"bogus": 1}, "bogus"),
        ({"certificates": "nope"}, "certificates"),
        ({"seed": "s"}, "seed"),
        ({"seed": True}, "seed"),
        ({"input_digest": 7}, "input_digest"),
        ({"zero_set_summary": []}, "zero_set_summary"),
        ({"tolerances": None}, "tolerances"),
    ],
)
def test_certificate_document_rejects_unknown_and_mistyped_fields(change, field):
    record = certificate_record()
    assert parse_certificate_document(json.dumps(record)) == CertificateDocument(**record)
    with pytest.raises(SchemaError) as err:
        parse_certificate_document(json.dumps({**record, **change}))
    assert field_of(err) == field


def test_certificate_document_requires_all_fields():
    with pytest.raises(SchemaError) as err:
        parse_certificate_document(b"{}")
    assert field_of(err) == "certificates"
    with pytest.raises(ParseError):
        parse_certificate_document(b"nope")
