"""Generated map documents: every input ends in a documented outcome.

``parse_map_file`` must return a MapDocument or raise MapcertError or
ValueError, the exceptions ``cli.main`` turns into exit code 2, and
``analyze`` on an accepted document must return 0, 2, 3 or 5 without letting
an exception escape.  Neither may print a numpy warning: both run with
warnings turned into errors.
"""

import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mapcert.cli import main
from mapcert.documents import MapDocument, parse_map_file
from mapcert.errors import MapcertError

KINDS = ("choi", "conjugation", "kraus")

small = st.one_of(st.floats(-3, 3), st.integers(-3, 3))
# a JSON value in an entry slot that is not a small number: not finite,
# huge (integers beyond the float range too), or not a number at all
ODD_CONSTANTS = [math.nan, math.inf, -math.inf, 1e308, -1e308, -0.0, 10**400, -(10**400)]
odd_parts = st.one_of(
    st.sampled_from(ODD_CONSTANTS),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
)
# finite parts whose squares, and so the map's block entries, overflow
huge = st.sampled_from([1e308, -1e308, 1e200])
parts = st.one_of(small, odd_parts)
entries = st.one_of(st.lists(parts, min_size=2, max_size=2), st.lists(parts, max_size=3), parts)
ragged_matrices = st.lists(st.lists(entries, max_size=4), max_size=4)
# a dimension that is not the one the payload was drawn for, or not one at all
bad_dimensions = st.one_of(
    st.integers(0, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.just("2"),
    st.none(),
)
# the part of a generated document that is broken, if any
BREAKS = ("none", "entry", "huge", "payload", "kind", "dim_in", "dim_out", "missing", "transposed", "meta", "extra")


def negated(part):
    return -part if isinstance(part, (int, float)) and not isinstance(part, bool) else part


@st.composite
def shaped_payload(draw, kind, n, m, spike=None, hermitian=st.booleans()):
    """A payload of the right shape for the kind, with small entries, one of
    whose parts is drawn from ``spike`` when it is given.  A Choi matrix is
    then made Hermitian (up to parts that are not numbers) when ``hermitian``
    draws True."""
    rows, cols = {"choi": (n * m, n * m), "conjugation": (n, m), "kraus": (m, n)}[kind]
    count = draw(st.integers(1, 2)) if kind == "kraus" else 1
    pair = st.lists(small, min_size=2, max_size=2)
    mats = [[[draw(pair) for _ in range(cols)] for _ in range(rows)] for _ in range(count)]
    if spike is not None:
        k, i, j = draw(st.integers(0, count - 1)), draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        mats[k][i][j][draw(st.integers(0, 1))] = draw(spike)
    if kind == "choi" and draw(hermitian):
        choi = mats[0]
        for i in range(rows):
            choi[i][i][1] = 0.0
            for j in range(i):
                choi[i][j] = [choi[j][i][0], negated(choi[j][i][1])]
    return mats if kind == "kraus" else mats[0]


@st.composite
def documents(draw):
    """A document of any kind with dimensions 1-3, a payload of the right
    shape, and at most one part broken."""
    kind = draw(st.sampled_from(KINDS))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    broken = draw(st.sampled_from(BREAKS))
    obj = {"kind": kind, "dim_in": n, "dim_out": m}
    obj["payload"] = draw(shaped_payload(kind, n, m, spike={"entry": odd_parts, "huge": huge}.get(broken)))
    if kind == "conjugation":
        obj["transposed"] = draw(st.booleans())
    if broken == "payload":
        obj["payload"] = draw(st.one_of(ragged_matrices, st.lists(ragged_matrices, max_size=2), parts))
    elif broken == "kind":
        obj["kind"] = draw(st.one_of(st.sampled_from(KINDS), st.text(max_size=3)))
    elif broken in ("dim_in", "dim_out"):
        obj[broken] = draw(bad_dimensions)
    elif broken == "missing":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif broken == "transposed":
        obj["transposed"] = draw(st.one_of(st.none(), st.integers(0, 1), parts))
    elif broken == "meta":
        obj["meta"] = draw(st.one_of(st.dictionaries(st.text(max_size=2), st.text(max_size=2), max_size=2), parts))
    elif broken == "extra":
        obj["extra"] = 1
    return json.dumps(obj)  # NaN and Infinity included, which json.loads accepts


def parse_with_warnings_as_errors(text):
    """``parse_map_file(text)``, or None when it raises an input error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return parse_map_file(text)
        except (MapcertError, ValueError):
            return None


@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(text=documents())
def test_parse_map_file_accepts_or_raises_an_input_error(text):
    doc = parse_with_warnings_as_errors(text)
    assert doc is None or isinstance(doc, MapDocument)


# every constant of ``odd_parts``, which the generated documents above reach only at some seeds
@pytest.mark.parametrize("part", [*ODD_CONSTANTS, True, False, "", None],
                         ids=["nan", "inf", "-inf", "1e308", "-1e308", "-0.0", "1e400", "-1e400", "True", "False", "empty", "None"])
@pytest.mark.parametrize("kind", KINDS)
def test_each_odd_part_in_an_entry_is_accepted_or_an_input_error(kind, part):
    for index in (0, 1):  # the real part, then the imaginary part, of entry [0][0]
        size = 4 if kind == "choi" else 2  # a valid 2 x 2 document: identity matrices in every slot
        matrix = [[[float(i == j), 0.0] for j in range(size)] for i in range(size)]
        matrix[0][0][index] = part
        payload = [matrix] if kind == "kraus" else matrix
        doc = parse_with_warnings_as_errors(json.dumps({"kind": kind, "dim_in": 2, "dim_out": 2, "payload": payload}))
        assert doc is None or isinstance(doc, MapDocument)


@st.composite
def accepted_documents(draw):
    """Documents with dimensions 1-3 that parse; in some, one entry is far
    off the scale of the others."""
    kind = draw(st.sampled_from(KINDS))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    spike = st.one_of(small, st.sampled_from([1e-60, 1e40, -1e40]))
    obj = {"kind": kind, "dim_in": n, "dim_out": m, "payload": draw(shaped_payload(kind, n, m, spike, st.just(True)))}
    if kind == "conjugation":
        obj["transposed"] = draw(st.booleans())
    text = json.dumps(obj)
    try:
        parse_map_file(text)
    except (MapcertError, ValueError):
        assume(False)
    return text


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(text=accepted_documents())
def test_analyze_ends_in_a_documented_exit_code(text, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "map.json"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(path)]) in (0, 2, 3, 5)
