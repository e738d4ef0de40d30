"""JSON document formats for maps, certificate reports and sweep reports.

Complex numbers are encoded as two-element [re, im] arrays throughout, so
documents stay schema-checkable without string parsing.  Rendering is
canonical (sorted keys, no whitespace, trailing newline) and parse/render
round-trip exactly; the content digest of a map document is the SHA-256 of
its canonical bytes, tying every certificate to one exact input.
"""

from __future__ import annotations

import hashlib
import json
import math
import typing
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .certify import Certificate
from .errors import ParseError, SchemaError
from .maps import MapOperator, choi_spectral_scale, cp_map_from_kraus, from_conjugation
from .zeros import ZeroSet

__all__ = [
    "MapDocument",
    "CertificateDocument",
    "SweepDocument",
    "matrix_to_payload",
    "payload_to_matrix",
    "parse_map_file",
    "render_map_document",
    "to_map_operator",
    "content_digest",
    "certificate_to_record",
    "zero_set_summary",
    "render_certificate_document",
    "parse_certificate_document",
]

_KINDS = ("choi", "conjugation", "kraus")
# The spectral scales a map document may have.  Outside them, residual norms
# under- or overflow (a residual below ~1e-154 squares to 0 and reads as a
# zero), so the zero map and maps scaled past the window are rejected.
_SCALE_WINDOW = (1e-100, 1e100)


@dataclass(frozen=True)
class MapDocument:
    """Validated, serialization-ready description of one map.

    The map it describes is decoded and built once, on first use, and
    memoized for every caller to share.
    """

    kind: str
    dim_in: int
    dim_out: int
    payload: list
    transposed: bool | None = None
    meta: dict = field(default_factory=dict)

    @cached_property
    def _operator(self) -> MapOperator:
        n, m = self.dim_in, self.dim_out
        # numpy's overflow warning is off: _product_map reports block products past the float range
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "choi":
                choi = payload_to_matrix(self.payload, n * m, n * m)
                try:
                    phi = MapOperator(n, m, choi)
                except ValueError as exc:  # the one Hermiticity rule, in MapOperator
                    raise SchemaError("choi", "hermiticity") from exc
            elif self.kind == "conjugation":
                phi = _product_map(from_conjugation, payload_to_matrix(self.payload, n, m), bool(self.transposed))
            else:
                if not isinstance(self.payload, list) or not self.payload:
                    raise SchemaError("payload", "expected a nonempty list of operators")
                kraus = [payload_to_matrix(op, m, n, path=f"payload[{k}]") for k, op in enumerate(self.payload)]
                phi = _product_map(cp_map_from_kraus, kraus)
        scale, (low, high) = choi_spectral_scale(phi), _SCALE_WINDOW
        if not low <= scale <= high:
            raise SchemaError("payload", f"spectral scale {scale:.3e} is outside [{low:g}, {high:g}]")
        return phi


def _product_map(build, *factors) -> MapOperator:
    """``build(*factors)``: finite factors whose block products overflow to inf
    or nan (a ValueError in MapOperator) put the spectral scale above the window."""
    try:
        return build(*factors)
    except ValueError as exc:
        raise SchemaError("payload", f"block entries overflow: spectral scale above {_SCALE_WINDOW[1]:g}") from exc


@dataclass(frozen=True)
class CertificateDocument:
    """Full analysis report for one map document."""

    input_digest: str
    certificates: list
    zero_set_summary: dict
    tool_version: str
    seed: int
    tolerances: dict


@dataclass(frozen=True)
class SweepDocument:
    """Report of one dimension sweep: one record per grid cell, in sweep order."""

    sweep: list
    tool_version: str
    seed: int
    tolerances: dict


def matrix_to_payload(matrix: np.ndarray) -> list:
    """Nested [re, im] lists for a 2-d complex array."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix, dtype=complex)]


def _entry_to_complex(entry, path: str) -> complex:
    if (
        not isinstance(entry, list)
        or len(entry) != 2
        or any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in entry)
    ):
        raise SchemaError(path, "entries must be [re, im] number pairs")
    re, im = float(entry[0]), float(entry[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise SchemaError(path, "entries must be finite")
    return complex(re, im)


def payload_to_matrix(payload, rows: int, cols: int, path: str = "payload") -> np.ndarray:
    """Decode one rows x cols matrix of [re, im] pairs, naming bad fields."""
    if not isinstance(payload, list) or len(payload) != rows:
        raise SchemaError(path, f"expected {rows} rows")
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(payload):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{path}[{i}]", f"expected {cols} entries")
        for j, entry in enumerate(row):
            out[i, j] = _entry_to_complex(entry, f"{path}[{i}][{j}]")
    return out


def _require_dim(obj, key) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SchemaError(key, "must be a positive integer")
    return value


def _json_object(data, known) -> dict:
    """The JSON object in document bytes (or text), whose keys are all ``known``."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from exc
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("document", "must be a JSON object")
    for key in obj:
        if key not in known:
            raise SchemaError(key, "unknown field")
    return obj


def parse_map_file(data) -> MapDocument:
    """Parse and validate map-document bytes (or text), realizing the map
    it describes (``to_map_operator`` returns it)."""
    obj = _json_object(data, {"kind", "dim_in", "dim_out", "payload", "transposed", "meta"})
    kind = obj.get("kind")
    if kind not in _KINDS:
        raise SchemaError("kind", f"must be one of {', '.join(_KINDS)}")
    n = _require_dim(obj, "dim_in")
    m = _require_dim(obj, "dim_out")
    transposed = obj.get("transposed")
    if kind == "conjugation":
        if transposed is None:
            transposed = False
        if not isinstance(transposed, bool):
            raise SchemaError("transposed", "must be a boolean")
    elif transposed is not None:
        raise SchemaError("transposed", "only valid for conjugation documents")
    meta = obj.get("meta", {})
    if not isinstance(meta, dict) or any(
        not isinstance(k, str) or not isinstance(v, str) for k, v in meta.items()
    ):
        raise SchemaError("meta", "must be an object with string values")
    if "payload" not in obj:
        raise SchemaError("payload", "missing")
    doc = MapDocument(
        kind=kind,
        dim_in=n,
        dim_out=m,
        payload=obj["payload"],
        transposed=transposed if kind == "conjugation" else None,
        meta=meta,
    )
    doc._operator  # validates the payload by realizing the map
    return doc


def _canonical_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def render_map_document(doc: MapDocument) -> bytes:
    """Canonical bytes; parse_map_file(render_map_document(doc)) == doc."""
    obj = {
        "kind": doc.kind,
        "dim_in": doc.dim_in,
        "dim_out": doc.dim_out,
        "payload": doc.payload,
        "meta": doc.meta,
    }
    if doc.transposed is not None:
        obj["transposed"] = doc.transposed
    return _canonical_bytes(obj)


def content_digest(doc: MapDocument) -> str:
    """SHA-256 of the canonical rendering."""
    return hashlib.sha256(render_map_document(doc)).hexdigest()


def to_map_operator(doc: MapDocument) -> MapOperator:
    """Realize the document as a MapOperator (memoized)."""
    return doc._operator


def certificate_to_record(cert: Certificate) -> dict:
    return {
        "claim": cert.claim,
        "verdict": cert.verdict,
        "measured_dim": cert.measured_dim,
        "required_dim": cert.required_dim,
        "irreducible_on_image": cert.irreducible_on_image,
        "conditional_note": cert.conditional_note,
    }


def zero_set_summary(zs: ZeroSet, weak_dim: int, strong_dim: int) -> dict:
    return {
        "pairs": len(zs.pairs),
        "weak_span_dim": weak_dim,
        "strong_span_dim": strong_dim,
        "saturated": zs.saturated,
    }


def render_certificate_document(doc: CertificateDocument | SweepDocument) -> bytes:
    """Canonical bytes for a certificate or sweep report: its fields, as JSON."""
    return _canonical_bytes(asdict(doc))


def parse_certificate_document(data) -> CertificateDocument:
    """Inverse of render_certificate_document: every field, each of its JSON type."""
    types = typing.get_type_hints(CertificateDocument)
    obj = _json_object(data, types)
    missing = sorted(types.keys() - obj.keys())
    if missing:
        raise SchemaError(missing[0], "missing")
    for name, kind in types.items():
        # bool is an int in Python, but no field is a JSON boolean
        if isinstance(obj[name], bool) or not isinstance(obj[name], kind):
            raise SchemaError(name, f"must be of type {kind.__name__}")
    return CertificateDocument(**obj)
