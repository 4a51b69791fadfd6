"""Batch front end: ingest A and B, run the pipeline, emit a JSON report.

Subcommands: cluster, analyze-b, oracle, selftest, one configuration
each: ``cluster`` reports ``analyze-b``'s blocks, hardness included, and
``selftest`` runs the whole suite.  Exit codes: 0 ok, 2 parse/validation
error, 3 numerical failure, 4 selftest failure.  Reports are
deterministic, the timestamp field aside, in the inputs and the flags but
--threads.  The solvers have no other tunables: the C(B) search and the
SDP run on their modules' constants, and --seed drives only the SDP
starts and the rounding trials.
``cluster`` still accepts and validates --threads, an integer of at least
1, and ignores it.

A CLI process runs in one BLAS thread: importing this module before numpy
sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1, so
every report is byte-identical whatever the caller's BLAS environment.  A
library caller that loaded numpy first keeps its own thread count.
``python -m gramclust.cli`` and the ``gramclust`` console script end
through :func:`run`, which skips the interpreter's teardown; :func:`main`
returns its exit code to in-process callers.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import math
import os
import sys
import time
from typing import NoReturn

if "numpy" not in sys.modules:
    # BLAS reads these once, when numpy loads; the sums of a multithreaded
    # product depend on the thread count, and so would the report
    os.environ.update(
        dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    )

import numpy as np

from . import __version__, pipeline
from .errors import GramclustError, NotCentered, NotPSD, ParseError
from .matrixcore import SymMatrix
from .oracle import brute_force_c3, brute_force_clust

ASYMMETRY_CUTOFF = 1e-9


def _json_numbers(raw) -> bool:
    """True when every leaf of nested JSON lists is an int or a float.

    numpy would cast the strings "2" and "nan" and the booleans to floats.
    A list of lists of numbers, the usual matrix, passes one C-level type
    scan; anything else takes the walk.
    """
    if (
        type(raw) is list
        and all(type(row) is list for row in raw)
        and set(map(type, itertools.chain.from_iterable(raw))) <= {int, float}
    ):
        return True
    stack = [raw]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            return False
    return True


def _ingest(raw, name: str) -> SymMatrix:
    try:
        if not isinstance(raw, np.ndarray) and not _json_numbers(raw):
            raise ValueError("an entry is not a number")
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        # non-numeric entries, ragged rows, objects or integers beyond the
        # float range in a JSON document
        raise ParseError(f"matrix {name} is not a numeric matrix: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ParseError(f"matrix {name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"matrix {name} contains NaN or Inf entries")
    # relative to the matrix alone, so a small matrix meets the same standard
    cutoff = ASYMMETRY_CUTOFF * float(np.max(np.abs(arr)))
    sym = SymMatrix(arr)
    if sym.asymmetry > cutoff:
        raise ParseError(
            f"matrix {name} asymmetry {sym.asymmetry:.3e} exceeds the {cutoff:.3e} cutoff"
        )
    return sym


def _load_csv(path: str, name: str) -> tuple[np.ndarray, bytes]:
    """The matrix in a CSV file, and the file's bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        # np.loadtxt only warns about a file without data lines
        if not any(line.split(b"#")[0].strip() for line in raw.splitlines()):
            raise ValueError("the file holds no data")
        return np.loadtxt(io.BytesIO(raw), delimiter=",", dtype=float, ndmin=2), raw
    except (OSError, ValueError) as exc:
        raise ParseError(f"could not read {name} from {path}: {exc}") from None


def _load_inputs(args, need_a: bool = True):
    """A and B from a JSON document or a pair of CSV files, and the sha256
    of the input bytes as read (the JSON file, or the CSV files in order)."""
    if args.input is not None:
        try:
            with open(args.input, "rb") as fh:
                raw = fh.read()
            doc = json.loads(raw)
        except (OSError, ValueError) as exc:
            raise ParseError(f"could not parse {args.input}: {exc}") from None
        if not isinstance(doc, dict) or "B" not in doc or (need_a and "A" not in doc):
            raise ParseError('input JSON must contain "A" and "B" matrices')
        a = _ingest(doc["A"], "A") if need_a and "A" in doc else None
        b = _ingest(doc["B"], "B")
    else:
        if args.b is None or (need_a and args.a is None):
            raise ParseError("provide a JSON input file or --a/--b CSV paths")
        a_mat, a_raw = _load_csv(args.a, "A") if need_a else (None, b"")
        b_mat, b_raw = _load_csv(args.b, "B")
        a = _ingest(a_mat, "A") if need_a else None
        b = _ingest(b_mat, "B")
        raw = a_raw + b_raw
    return a, b, hashlib.sha256(raw).hexdigest()


def _check_out(path: str | None) -> None:
    """Fail before any work when --out names a directory or lies in none;
    :func:`_emit` still reports the write errors only the write can find."""
    if not path:
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ParseError(f"cannot write {path}: {parent} is not a directory")
    if os.path.isdir(path):
        raise ParseError(f"cannot write {path}: it is a directory")


def _emit(report: dict, args) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            reason = exc.strerror or exc
            raise ParseError(f"cannot write {args.out}: {reason}") from None
    else:
        print(text)


def _base_report(digest: str, a: SymMatrix | None, b: SymMatrix) -> dict:
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "versions": {
            "gramclust": __version__,
            "numpy": np.__version__,
        },
        "inputs": {
            "n": a.dim if a is not None else None,
            "k": b.dim,
            "sha256": digest,
            "symmetrization_applied": bool(
                (a is not None and a.asymmetry > 0) or b.asymmetry > 0
            ),
            "max_asymmetry": max(a.asymmetry if a is not None else 0.0, b.asymmetry),
        },
    }


def run_cluster(args) -> dict:
    a, b, digest = _load_inputs(args)
    report = _base_report(digest, a, b)
    report["seed"] = args.seed
    report.update(pipeline.cluster(
        a, b, trials=args.trials, seed=args.seed, mu_epsilon=args.mu_epsilon
    ))
    return report


def run_analyze_b(args) -> dict:
    _, b, digest = _load_inputs(args, need_a=False)
    report = _base_report(digest, None, b)
    report.update(pipeline.analyze_b(b, args.mu_epsilon))
    return report


def run_oracle(args) -> dict:
    a, b, digest = _load_inputs(args)
    report = _base_report(digest, a, b)
    value, sigma = brute_force_clust(a, b, max_states=args.max_states)
    report["clust_value"] = value
    report["sigma"] = sigma.tolist()
    if b.dim == 3:
        report["c3_grid"] = brute_force_c3(b, grid=args.grid)
    return report


def run_selftest(args) -> int:
    from .acceptance import ALL_CRITERIA, Shared

    shared = Shared()
    results = [fn(shared) for fn in ALL_CRITERIA]
    width = max(len(r.name) for r in results)
    print(f"{'criterion':<{width}}  status  elapsed")
    print("-" * (width + 18))
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name:<{width}}  {status}    {res.elapsed:6.1f}s")
        for row in res.rows:
            mark = "ok" if row.get("ok") else "FAIL"
            print(f"    [{mark:>4}] {row['check']}: measured={row['measured']}"
                  f" expected={row['expected']}")
        for warning in res.warnings:
            print(f"    [warn] {warning}")
        failed |= not res.passed
    print("-" * (width + 18))
    print("result:", "FAIL" if failed else "PASS")
    return 4 if failed else 0


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _positive_float(text: str) -> float:
    """A finite float above 0; rejects nan."""
    value = float(text)
    if not math.isfinite(value) or value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {value}")
    return value


def _add_inputs(p: argparse.ArgumentParser, with_a: bool = True) -> None:
    p.add_argument("input", nargs="?", help="JSON file with matrices A and B")
    if with_a:
        p.add_argument("--a", help="CSV file with matrix A")
    p.add_argument("--b", help="CSV file with matrix B")
    p.add_argument("--out", help="write the JSON report here instead of stdout")


def _add_b_options(p: argparse.ArgumentParser) -> None:
    """Flags of the part that reads B alone: the hardness gadget."""
    p.add_argument("--mu-epsilon", type=_positive_float, default=1e-4,
                   help="epsilon of the perturbed support distribution, "
                        "as a share of R(B)^2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramclust",
        description="Kernel clustering: certified SDP relaxation and rounding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser("cluster", help="full pipeline on (A, B)")
    _add_inputs(cluster)
    _add_b_options(cluster)
    cluster.add_argument("--seed", type=_int_at_least(0), default=0,
                         help="seed of the SDP starts and the rounding trials")
    cluster.add_argument("--threads", type=_int_at_least(1), default=1,
                         help="accepted for compatibility and ignored")
    cluster.add_argument("--trials", type=_int_at_least(1), default=100)
    cluster.set_defaults(fn=lambda a: (_emit(run_cluster(a), a), 0)[1])

    analyze = sub.add_parser("analyze-b", help="per-B constants and gadgets")
    _add_inputs(analyze, with_a=False)
    _add_b_options(analyze)
    analyze.set_defaults(fn=lambda a: (_emit(run_analyze_b(a), a), 0)[1])

    oracle = sub.add_parser("oracle", help="exact desk-scale ground truth")
    _add_inputs(oracle)
    oracle.add_argument("--grid", type=_int_at_least(180), default=360)
    oracle.add_argument("--max-states", type=_int_at_least(1), default=50_000_000)
    oracle.set_defaults(fn=lambda a: (_emit(run_oracle(a), a), 0)[1])

    selftest = sub.add_parser("selftest", help="run the acceptance suite")
    selftest.set_defaults(fn=run_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(getattr(args, "out", None))
        return args.fn(args)
    except (ParseError, NotPSD, NotCentered) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GramclustError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def run(argv=None) -> NoReturn:
    """Run :func:`main` and end the process with its exit code.

    The report is complete once stdout and stderr are flushed, so the
    interpreter's teardown, which finalizes every module and object, is
    skipped.  An exception or a SystemExit from main takes the ordinary
    way out."""
    code = main(argv)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
