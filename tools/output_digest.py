"""Output-equivalence digest of one mapcert source tree.

    python tools/output_digest.py SRC

imports mapcert from the directory SRC (a tree's ``src/``) and prints one
SHA-256 per output family, as ``family digest`` lines, over what the
program outputs on a fixed input set.  After those nine lines it prints
one ``analyze <index> <digest>`` line per analyze run, over that run's
inputs, outputs and report bytes, so that a diff of two trees' listings
names the runs whose bytes moved (the index is the run's position in the
document list of ``default_inputs``); ``head -9`` keeps the families alone.
The families are:

* ``sweep``: ``mapcert sweep`` at seeds 0 and 3 and with ``--n-range 2
  --m-range 2..3``: stdout, stderr and exit code;
* ``sweep-json``: the ``--json`` bytes of those sweeps;
* ``zero-sets``: the ZeroSets of both zero routes (analytic and harvest) on
  the 32 default sweep cells at seeds 0 and 1: every kept pair's x, h and
  ``repr`` of its residual, the weak and strong rows with their shapes, and
  ``saturated``;
* ``zero-set-dims``: of those same ZeroSets, only the pair count, the weak
  and strong span dimensions and ``saturated``.  A change of route that
  keeps every dimension moves ``zero-sets`` and leaves this one alone;
* ``oracle``: ``brute_force_strong_dim_oracle`` on those 64 cells, with
  ``transposed`` True and then False: the integer each call returns, or
  the class name of the exception it raises;
* ``analyze``: 265 runs of ``mapcert analyze --json``, on 241 documents:
  perfbench's analyze-mixed entries at seeds 1-3 (72), the seed-1 ones
  again with ``--tol 1e-7`` (24), its analyze-large entries (3),
  50 documents of each ``mapcert generate`` kind over n, m in 2..4 (150,
  whose generate bytes are hashed too) and 16 invalid documents, one per
  error path of the map-document parser (bad JSON, non-UTF-8 bytes, a
  non-object, V = 0, wrong shapes, an empty or non-list Kraus payload,
  non-Hermitian Choi matrices at two scales, bad entries and an unknown
  field): stdout, stderr and exit code;
* ``analyze-json``: the report bytes of those analyze runs;
* ``harvest``: ``harvest_zeros`` on maps whose zeros are not exact, where
  the descent's last bits decide which pairs are kept: the generalized
  Choi maps Phi[a, b, c] on M_3 with a in {1.2, 1.5, 2}, a + b + c = 3,
  bc = (2 - a)^2 and b >= c, at seeds 0-3, and ``random_cp_map(n, m, k,
  seed=1)`` for 3->3 k=4, 3->2 k=3 and 4->3 k=4, at seeds 0-1: every kept
  pair's x, h and ``repr`` of its residual, the strong rows and
  ``saturated``.  ``zero-sets`` covers conjugation maps only, whose
  zeros are exact;
* ``positivity``: ``is_positive_heuristic`` at seeds 0-3 on those
  generalized Choi maps and on random positive-definite Choi matrices of
  shapes 2x2, 2x3 and 3x3 and their negations: ``passed``, ``repr`` of
  ``worst_value`` and the bytes of ``worst_vector``.  The ``analyze``
  family sees the heuristic only through its printed ``.3e`` value.

Equal digests of a family from two trees mean byte-identical outputs of that
family, so a change that claims unchanged outputs is checked by running this
against the parent's ``src/`` and the change's, and a documented format
change shows which families it left byte-identical.  One run takes seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SWEEPS = (
    ["sweep", "--seed", "0"],
    ["sweep", "--seed", "3"],
    ["sweep", "--n-range", "2", "--m-range", "2..3"],
)

FAMILIES = ("sweep", "sweep-json", "zero-sets", "zero-set-dims", "oracle", "analyze", "analyze-json", "harvest",
            "positivity")


def _cli(argv) -> tuple[int, bytes, bytes]:
    import mapcert.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mapcert.cli.main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


class _Hasher:
    """SHA-256 over a sequence of length-prefixed fields."""

    def __init__(self):
        self._sha = hashlib.sha256()

    def add(self, *fields):
        for value in fields:
            if isinstance(value, np.ndarray):
                self.add(str(value.shape), str(value.dtype), np.ascontiguousarray(value).tobytes())
                continue
            data = value if isinstance(value, bytes) else str(value).encode()
            self._sha.update(len(data).to_bytes(8, "little") + data)

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _add_zero_set(hashers, zs):
    from mapcert.zeros import strong_span_dim, weak_span_dim

    hashers["zero-sets"].add(len(zs.pairs), zs.saturated, zs.weak_vectors, zs.strong_vectors)
    for pair in zs.pairs:
        hashers["zero-sets"].add(pair.x, pair.h, repr(pair.residual))
    hashers["zero-set-dims"].add(len(zs.pairs), weak_span_dim(zs), strong_span_dim(zs), zs.saturated)


def _harvest_map(kind, params):
    """The map of a ``harvest`` or ``positivity`` input: ``random_cp_map(n, m, k, seed=1)`` for kind
    "random-cp" and params (n, m, k); for kind "random-pd" and params (n, m, sign), sign times the
    positive-definite Choi matrix G G^H of an nm x nm complex Gaussian G drawn from seed [n, m]; or the
    generalized Choi map Phi[a, b, c] on M_3 for kind "choi" and params (a, b, c),
    X -> diag(a x11 + b x22 + c x33, c x11 + a x22 + b x33, b x11 + c x22 + a x33) - X."""
    from mapcert.experiments import random_cp_map
    from mapcert.maps import MapOperator

    if kind == "random-cp":
        return random_cp_map(*params, seed=1)
    if kind == "random-pd":
        n, m, sign = params
        rng = np.random.default_rng([n, m])
        g = rng.standard_normal((n * m, n * m)) + 1j * rng.standard_normal((n * m, n * m))
        choi = g @ g.conj().T
        return MapOperator(n, m, sign * 0.5 * (choi + choi.conj().T))
    a, b, c = params
    weights = np.array([[a, c, b], [b, a, c], [c, b, a]])  # weights[i, k]: the coefficient of x_ii in Phi(X)_kk
    omega = np.eye(3).ravel()
    return MapOperator(3, 3, np.diag(weights.ravel()) - np.outer(omega, omega))


def output_digest(sweeps, cells, documents, harvests=(), positivity=(), runs=None) -> dict[str, str]:
    """SHA-256 per family of the outputs of the imported mapcert on the inputs.

    ``sweeps``: argv lists of ``mapcert sweep`` (``--json`` is appended);
    ``cells``: (n, m, rank, seed) conjugation cells for both zero routes and
    the oracle;
    ``documents``: (map document text or bytes, analyze seed, *flags)
    tuples; the flags, if any, are passed on to ``analyze``;
    ``harvests``: (kind, params, seed) inputs of ``harvest_zeros``, the map
    built by ``_harvest_map(kind, params)``;
    ``positivity``: (kind, params, seed) inputs of ``is_positive_heuristic``,
    the map built likewise;
    ``runs``: a list, if given, that receives one SHA-256 per document's
    analyze run, in order.
    """
    from mapcert.experiments import brute_force_strong_dim_oracle, random_rank_operator
    from mapcert.maps import from_conjugation, is_positive_heuristic
    from mapcert.zeros import analytic_zeros_conjugation, harvest_zeros

    hashers = {family: _Hasher() for family in FAMILIES}
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for argv in sweeps:
            hashers["sweep"].add(*argv, *_cli([*argv, "--json", str(report)]))
            hashers["sweep-json"].add(*argv, report.read_bytes())
            report.unlink()
        for n, m, rank, seed in cells:
            v = random_rank_operator(n, m, rank, seed=seed)
            hashers["zero-sets"].add(n, m, rank, seed)
            hashers["zero-set-dims"].add(n, m, rank, seed)
            _add_zero_set(hashers, analytic_zeros_conjugation(v, transposed=True))
            _add_zero_set(hashers, harvest_zeros(from_conjugation(v, transposed=True), seed=seed))
            oracles = []
            for transposed in (True, False):
                try:
                    oracles.append(brute_force_strong_dim_oracle(v, transposed=transposed, seed=seed))
                except Exception as exc:
                    oracles.append(type(exc).__name__)
            hashers["oracle"].add(n, m, rank, seed, *oracles)
        for kind, params, seed in harvests:
            zs = harvest_zeros(_harvest_map(kind, params), seed=seed)
            hashers["harvest"].add(kind, *params, seed, len(zs.pairs), zs.saturated, zs.strong_vectors)
            for pair in zs.pairs:
                hashers["harvest"].add(pair.x, pair.h, repr(pair.residual))
        for kind, params, seed in positivity:
            outcome = is_positive_heuristic(_harvest_map(kind, params), seed=seed)
            hashers["positivity"].add(kind, *params, seed, outcome.passed, repr(outcome.worst_value),
                                      outcome.worst_vector.tobytes())
        doc = Path(tmp) / "map.json"
        for text, seed, *flags in documents:
            doc.write_bytes(text if isinstance(text, bytes) else text.encode())
            outputs = _cli(["analyze", str(doc), "--seed", str(seed), *flags, "--json", str(report)])
            report_bytes = report.read_bytes() if report.exists() else b"no report"
            hashers["analyze"].add(text, seed, *flags, *outputs)
            hashers["analyze-json"].add(text, seed, *flags, report_bytes)
            report.unlink(missing_ok=True)
            if runs is not None:
                run = _Hasher()
                run.add(text, seed, *flags, *outputs, report_bytes)
                runs.append(run.hexdigest())
    return {family: hasher.hexdigest() for family, hasher in hashers.items()}


def _generated_documents() -> list[tuple[str, int]]:
    documents = []
    for kind in ("conjugation", "random-cp", "random-choi"):
        for seed in range(50):
            n, m = 2 + seed % 3, 2 + seed // 3 % 3
            argv = ["generate", "--kind", kind, "--n", str(n), "--m", str(m), "--seed", str(seed)]
            if kind == "conjugation":
                argv += ["--rank", str(1 + seed % min(n, m))]
                argv += ["--no-transposed"] if seed % 4 == 3 else []
            elif kind == "random-cp":
                argv += ["--kraus", str(1 + seed % 4)]
            code, out, err = _cli(argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.decode()}")
            documents.append((out.decode(), seed))
    return documents


def _invalid_documents() -> list[tuple[str | bytes, int]]:
    """Documents that analyze must reject, one per error path of the parser."""
    from mapcert.documents import matrix_to_payload

    def doc(kind, n, m, payload, **extra):
        return json.dumps({"kind": kind, "dim_in": n, "dim_out": m, "payload": payload, **extra})

    rng = np.random.default_rng(7)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    skew = g + g.conj().T + 1e-5 * np.triu(rng.standard_normal((4, 4)))
    eye = matrix_to_payload(np.eye(2))
    documents = [
        "{not json",
        b"\xff\xfe",
        "[1, 2]",
        doc("conjugation", 2, 3, matrix_to_payload(np.zeros((2, 3)))),
        doc("conjugation", 2, 2, matrix_to_payload(np.zeros((2, 2))), transposed=True),
        doc("conjugation", 2, 2, eye[:1]),
        doc("conjugation", 2, 2, [eye[0], eye[1][:1]]),
        doc("choi", 2, 2, matrix_to_payload(np.eye(3))),
        doc("kraus", 2, 2, [eye, matrix_to_payload(np.eye(3))]),
        doc("kraus", 2, 2, []),
        doc("kraus", 2, 2, "nope"),
        doc("choi", 2, 2, matrix_to_payload(skew)),
        doc("choi", 2, 2, matrix_to_payload(1e-12 * skew)),
        doc("conjugation", 2, 2, [[[1.0, 0.0], ["a", 0.0]], eye[1]]),
        doc("conjugation", 2, 2, [[[1.0, 0.0], [True, 0.0]], eye[1]]),
        doc("conjugation", 2, 2, eye, extra=1),
    ]
    return [(document, 0) for document in documents]


def _perfbench_documents() -> list[tuple]:
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    specs = [(seed, spec) for seed in (1, 2, 3) for spec in workloads.MIXED]
    specs += [(1, spec) for spec in workloads.LARGE]
    documents = []
    for index, (seed, spec) in enumerate(specs):
        rng = np.random.default_rng([seed, index])
        documents.append((json.dumps(workloads.make_document(rng, *spec)), seed))
    # the rank threshold is the one settable tolerance: run it at ten times the default too
    return documents + [(text, seed, "--tol", "1e-7") for text, seed in documents[: len(workloads.MIXED)]]


def _harvest_inputs() -> list[tuple]:
    """The generalized Choi maps with a + b + c = 3, bc = (2 - a)^2 and b >= c, at seeds 0-3, then three
    random CP maps with more operators than output dimension where n >= 3, at seeds 0-1."""
    inputs = []
    for a in (1.2, 1.5, 2.0):
        s, p = 3 - a, (2 - a) ** 2
        root = np.sqrt(s * s - 4 * p)
        inputs += [("choi", (a, (s + root) / 2, (s - root) / 2), seed) for seed in range(4)]
    for shape in ((3, 3, 4), (3, 2, 3), (4, 3, 4)):
        inputs += [("random-cp", shape, seed) for seed in range(2)]
    return inputs


def _positivity_inputs() -> list[tuple]:
    """The generalized Choi maps of ``_harvest_inputs``, then random positive-definite Choi matrices and
    their negations, each at seeds 0-3."""
    maps = list(dict.fromkeys((kind, params) for kind, params, _ in _harvest_inputs() if kind == "choi"))
    maps += [("random-pd", (n, m, sign)) for n, m in ((2, 2), (2, 3), (3, 3)) for sign in (1, -1)]
    return [(kind, params, seed) for kind, params in maps for seed in range(4)]


def default_inputs():
    """The full input set: (sweeps, cells, documents, harvests, positivity) for ``output_digest``."""
    from mapcert.experiments import sweep_cells

    cells = [(n, m, r, seed) for seed in (0, 1) for n, m, r in sweep_cells()]
    documents = _perfbench_documents() + _generated_documents() + _invalid_documents()
    return list(SWEEPS), cells, documents, _harvest_inputs(), _positivity_inputs()


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve()
    sys.path.insert(0, str(src))
    import mapcert

    if Path(mapcert.__file__).resolve().parent != src / "mapcert":
        print(f"error: mapcert was imported from {mapcert.__file__}, not {src}", file=sys.stderr)
        return 2
    runs = []
    _print_listing(output_digest(*default_inputs(), runs=runs), runs)
    return 0


def _print_listing(digests, runs) -> None:
    """Print the family lines, then the per-run lines; a reader that stops early (``| head -9``)
    ends the listing quietly."""
    try:
        for family, digest in digests.items():
            print(family, digest)
        for index, digest in enumerate(runs):
            print("analyze", index, digest)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's fd now writes to /dev/null, so the flush at exit finds no closed pipe either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
