"""tools/output_digest.py, the output-equivalence digest of a source tree."""

import json
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
    digests = [tool.output_digest(*case) for case in (first, second, first, second)]
    assert digests[:2] == digests[2:]
    assert digests[0] != digests[1]
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests)
