"""Seeded inputs, entry-point calls and truth checks of the four workloads.

mapcert is driven only through ``mapcert.cli.main`` and
``mapcert.experiments.brute_force_strong_dim_oracle``, both looked up on
their module at call time so the traced run sees its wrappers.  Inputs are
made here with numpy from the workload seed; the program receives only the
generated documents (or operators, for the oracle).

Every answer is checked against a truth that follows from how the input was
built, never from the program's output, and only integers, verdicts and exit
codes are compared.  A wrong dimension, a wrong verdict, a wrong exit code or
an exception fails the item (one analyzed document, one sweep cell or one
oracle cell).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

CERTIFIED = "Certified"
INCONCLUSIVE = "Inconclusive"

# The default sweep grid: n in {2,3,4}, m in {2..5}, every feasible rank.
GRID = [(n, m, r) for n in (2, 3, 4) for m in (2, 3, 4, 5) for r in range(1, min(n, m) + 1)]

# analyze-mixed: (kind, n, m, rank or Kraus count, transposed).  Every kind
# of small document: transposed rank >= 2, untransposed and rank-1
# conjugations; random CP maps with k < m, k = m (n <= m and n > m) and
# k > m; positive-definite Choi matrices; one negated CP map.
MIXED = [
    ("conjugation", 2, 3, 2, True),
    ("conjugation", 3, 4, 2, True),
    ("conjugation", 3, 3, 3, True),
    ("conjugation", 2, 2, 2, True),
    ("conjugation", 4, 4, 3, True),
    ("conjugation", 2, 5, 2, True),
    ("conjugation", 2, 3, 2, False),
    ("conjugation", 3, 3, 3, False),
    ("conjugation", 3, 2, 2, False),
    ("conjugation", 3, 3, 1, True),
    ("conjugation", 2, 4, 1, False),
    ("conjugation", 2, 2, 1, True),
    ("random-cp", 2, 3, 2, None),
    ("random-cp", 3, 4, 2, None),
    ("random-cp", 3, 4, 3, None),
    ("random-cp", 2, 2, 2, None),
    ("random-cp", 3, 3, 3, None),
    ("random-cp", 3, 2, 2, None),
    ("random-cp", 4, 3, 3, None),
    ("random-cp", 2, 2, 3, None),
    ("random-cp", 2, 3, 4, None),
    ("random-choi", 2, 3, None, None),
    ("random-choi", 3, 3, None, None),
    ("negated-cp", 2, 2, None, None),
]

# Seeded documents per MIXED entry.  The cost of a random CP map or Choi
# matrix varies up to 4x with the seed (failed descents, positivity
# restarts); more documents per entry keep the pass time and the tail
# percentile from resting on a few of them.
MIXED_COPIES = 8

# analyze-large: where span admission and the commutant solve dominate.
LARGE = [
    ("conjugation", 6, 8, 5, True),
    ("conjugation", 6, 6, 6, False),
    ("random-choi", 6, 8, None, None),
]

WORKLOADS = ("analyze-large", "analyze-mixed", "sweep-grid", "oracle-grid")


@dataclass
class Op:
    """One closed-loop call into an entry point, covering ``items`` items."""

    items: int
    invoke: Callable[[], object]
    check: Callable[[object], dict]  # outcome -> {failed item label: reason}


@dataclass
class Workload:
    ops: list
    warmup: Callable[[], object]
    reference: str = "calls"  # the reference rep (refclock.py) that resembles its work


class CallFailed(Exception):
    """An exception from an entry-point call, kept as the call's outcome."""


def _call(fn, *args, **kwargs):
    # The benchmark is the boundary that must keep running: an exception is
    # the outcome of this call, and the check counts it as failed items.
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001
        return CallFailed(f"{type(exc).__name__}: {exc}")


def input_rule(n: int, m: int, rank: int) -> int:
    """Strong dimension of a transposed conjugation map (the input rule)."""
    return n * n * m - (2 * n - 1 if rank == 1 else n)


# -- input generation ---------------------------------------------------------

def _ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _payload(matrix):
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def rank_operator(rng, n, m, rank):
    """n x m operator of rank ``rank`` (almost surely) as a Ginibre product."""
    return _ginibre(rng, n, rank) @ _ginibre(rng, rank, m)


def make_document(rng, kind, n, m, k, transposed) -> dict:
    if kind == "conjugation":
        return {"kind": "conjugation", "dim_in": n, "dim_out": m, "transposed": transposed,
                "payload": _payload(rank_operator(rng, n, m, k))}
    if kind == "random-cp":
        return {"kind": "kraus", "dim_in": n, "dim_out": m,
                "payload": [_payload(_ginibre(rng, m, n)) for _ in range(k)]}
    g = _ginibre(rng, n * m, n * m)
    choi = g @ g.conj().T
    choi = 0.5 * (choi + choi.conj().T)
    if kind == "negated-cp":
        choi = -choi
    return {"kind": "choi", "dim_in": n, "dim_out": m, "payload": _payload(choi)}


def _label(kind, n, m, k, transposed) -> str:
    text = f"{kind} {n}x{m}"
    if kind == "conjugation":
        text += f" rank {k} " + ("transposed" if transposed else "untransposed")
    elif kind == "random-cp":
        text += f" k={k}"
    return text


# -- truth ------------------------------------------------------------------

def analyze_truth(kind, n, m, k, transposed, result) -> str | None:
    """First violated truth for one analyzed document, or None."""
    code, facts = result
    if kind == "negated-cp":
        return None if code == 3 else f"exit code {code}, expected 3"
    if code != 0:
        return f"exit code {code}, expected 0"
    if facts is None:
        return "no analysis in the output"
    pairs, weak, strong, optimal, exposed = facts
    nm = n * m
    if kind == "conjugation":
        if transposed and strong != input_rule(n, m, k):
            return f"strong span {strong}, expected {input_rule(n, m, k)}"
        expected_weak = nm if (transposed and k >= 2) else nm - 1
        if weak != expected_weak:
            return f"weak span {weak}, expected {expected_weak}"
        expected_optimal = CERTIFIED if weak == nm else INCONCLUSIVE
        if optimal != expected_optimal:
            return f"Optimal {optimal}, expected {expected_optimal}"
        expected_exposed = CERTIFIED if k == n else INCONCLUSIVE
        if exposed != expected_exposed:
            return f"Exposed {exposed}, expected {expected_exposed}"
    elif kind == "random-choi":
        if pairs != 0 or optimal != INCONCLUSIVE or exposed != INCONCLUSIVE:
            return f"{pairs} pairs, Optimal {optimal}, Exposed {exposed}; expected 0 pairs, both Inconclusive"
    elif kind == "random-cp":
        # Kraus rank k >= 2: not optimal, not exposed, and every weak vector
        # lies in the (nm - k)-dimensional kernel of the Choi matrix.
        if optimal == CERTIFIED or exposed == CERTIFIED:
            return f"Optimal {optimal}, Exposed {exposed} on a CP map of Kraus rank {k}"
        if weak > nm - k:
            return f"weak span {weak} exceeds nm - k = {nm - k}"
    return None


_VERDICT = re.compile(r"^(Optimal|Exposed): (\w+)\s+\((?:weak|strong) span (\d+) / (\d+)\)$", re.M)
_PAIRS = re.compile(r"^zero pairs kept: (\d+) ", re.M)


def facts_from_stdout(text):
    """(pairs, weak, strong, Optimal verdict, Exposed verdict) from analyze stdout."""
    verdicts = {claim: (verdict, int(dim)) for claim, verdict, dim, _ in _VERDICT.findall(text)}
    pairs = _PAIRS.search(text)
    if pairs is None or set(verdicts) != {"Optimal", "Exposed"}:
        return None
    return (int(pairs.group(1)), verdicts["Optimal"][1], verdicts["Exposed"][1],
            verdicts["Optimal"][0], verdicts["Exposed"][0])


def facts_from_report(path):
    """The same facts from an ``analyze --json`` report."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    certs = {c["claim"]: c for c in report["certificates"]}
    summary = report["zero_set_summary"]
    return (summary["pairs"], summary["weak_span_dim"], summary["strong_span_dim"],
            certs["Optimal"]["verdict"], certs["Exposed"]["verdict"])


# -- workloads ----------------------------------------------------------------

def _cli(mapcert_cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mapcert_cli.main(argv)
    return code, out.getvalue()


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _analyze_ops(specs, seed, salt, workdir, mapcert_cli, report: bool, copies: int = 1):
    ops = []
    for index, spec in enumerate(specs * copies):
        label = _label(*spec) + (f" #{index // len(specs)}" if copies > 1 else "")
        rng = np.random.default_rng([seed, salt, index])
        path = os.path.join(workdir, f"doc{salt}-{index}.json")
        _write(path, make_document(rng, *spec))
        argv = ["analyze", path, "--seed", str(int(rng.integers(2**31)))]
        report_path = os.path.join(workdir, f"report{salt}-{index}.json")
        if report:
            argv += ["--json", report_path]

        def invoke(argv=argv):
            return _call(_cli, mapcert_cli, argv)

        def check(outcome, spec=spec, report_path=report_path, label=label):
            if isinstance(outcome, CallFailed):
                return {label: str(outcome)}
            code, text = outcome
            try:
                facts = facts_from_report(report_path) if (report and code == 0) else facts_from_stdout(text)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                return {label: f"unreadable report: {exc}"}
            finally:
                # The next call must write its own report, not find this one.
                if os.path.exists(report_path):
                    os.remove(report_path)
            reason = analyze_truth(*spec, (code, facts))
            return {label: reason} if reason else {}

        ops.append(Op(1, invoke, check))
    return ops


_ROW = re.compile(r"^\s*(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+\d+\s+\d+\s+\d+\s+(\w+)\s*$", re.M)


def _sweep_cells():
    # `mapcert sweep` with the default ranges: the n = 2 rank-2 count check
    # for m = 2..5, then every cell of the grid.
    return [(2, m, 2) for m in (2, 3, 4, 5)] + GRID


def _check_sweep(outcome):
    cells = _sweep_cells()
    labels = [f"sweep row {i}: n={n} m={m} rank={r}" for i, (n, m, r) in enumerate(cells)]
    if isinstance(outcome, CallFailed):
        return dict.fromkeys(labels, str(outcome))
    code, text = outcome
    rows = [tuple(int(v) for v in row[:4]) + (row[4],) for row in _ROW.findall(text)]
    failed = {}
    for i, (cell, label) in enumerate(zip(cells, labels)):
        if i >= len(rows) or rows[i][:3] != cell:
            failed[label] = "row missing"
            continue
        measured, agrees = rows[i][3], rows[i][4]
        if measured != input_rule(*cell) or agrees not in ("input_rule", "both"):
            failed[label] = f"measured {measured} ({agrees}), expected {input_rule(*cell)}"
    if code != 0 and not failed:
        # A nonzero exit that no wrong row explains fails the whole call.
        return dict.fromkeys(labels, f"exit code {code}, expected 0")
    return failed


def build(name: str, seed: int, workdir: str) -> Workload:
    """The workload's fixed input set for ``seed`` and its warm-up call."""
    import mapcert.cli
    import mapcert.experiments

    cli = mapcert.cli
    if name == "analyze-large":
        ops = _analyze_ops(LARGE, seed, 1, workdir, cli, report=False)
        warm = _analyze_ops([("conjugation", 2, 3, 2, True)], seed, 9, workdir, cli, report=False)[0]
        return Workload(ops, warm.invoke, reference="memory")
    if name == "analyze-mixed":
        ops = _analyze_ops(MIXED, seed, 2, workdir, cli, report=True, copies=MIXED_COPIES)
        return Workload(ops, ops[0].invoke)
    if name == "sweep-grid":
        argv = ["sweep", "--seed", str(seed)]
        op = Op(len(_sweep_cells()), lambda: _call(_cli, cli, argv), _check_sweep)
        warm = ["sweep", "--n-range", "2", "--m-range", "2", "--seed", str(seed)]
        return Workload([op], lambda: _call(_cli, cli, warm))
    if name == "oracle-grid":
        experiments = mapcert.experiments
        ops = []
        for index, (n, m, r) in enumerate(GRID):
            v = rank_operator(np.random.default_rng([seed, 3, index]), n, m, r)
            label = f"oracle cell n={n} m={m} rank={r}"

            def invoke(v=v):
                return _call(lambda: experiments.brute_force_strong_dim_oracle(v, transposed=True, seed=seed))

            def check(outcome, label=label, truth=input_rule(n, m, r)):
                if isinstance(outcome, CallFailed):
                    return {label: str(outcome)}
                return {} if outcome == truth else {label: f"oracle {outcome}, expected {truth}"}

            ops.append(Op(1, invoke, check))
        return Workload(ops, ops[0].invoke)
    raise ValueError(f"unknown workload {name!r}")
