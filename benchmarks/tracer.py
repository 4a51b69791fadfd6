"""Spans around gramclust's public functions, recorded from outside the program.

``Tracer.install`` wraps each function named in ``TRACED`` in every loaded
``gramclust.*`` module, matching attributes by object identity, so a span is
recorded wherever the function is called from.  A listed function that no
longer exists is reported in ``absent`` instead of failing the run.  Spans
stay in memory until the run writes them out.

Run as a script, this file is the traced stand-in for ``python -m
gramclust.cli``: it installs the tracer, calls ``gramclust.cli.main`` with
the remaining arguments, writes the spans to ``--spans`` and exits with
main's return code::

    python3 benchmarks/tracer.py --spans spans.json --op 3 --role op -- \\
        cluster input.json --out report.json
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
import time
from collections import defaultdict

TRACED = (
    "cli.main",
    "matrixcore.validate_psd",
    "matrixcore.gram_factorize",
    "ball.min_enclosing_ball",
    "ball.radius_squared",
    "hardness.build_mu",
    "hardness.dictatorship_objective",
    "conic.search_cb",
    "conic.partition_moments_mc",
    "conic.classify_batch",
    "sdp.solve_sdp",
    "sdp.ascend_from",
    "rounding.round_best_of",
    "rounding.clustering_value",
    "oracle.brute_force_clust",
)
SEARCH = "conic.search_cb"

# span record fields
NAME, START, END, PARENT, OP, ROLE, HIT = range(7)


class Tracer:
    """In-memory span recorder; ``op`` and ``role`` tag the spans that follow."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.op: int | str | None = None
        self.role = "op"
        self._local = threading.local()
        self._search_results: list = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, self.role, None]
            stack.append(len(self.spans))
            self.spans.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if name == SEARCH:
                # a cache hit hands back a tuple returned earlier, by identity
                record[HIT] = any(result is seen for seen in self._search_results)
                if not record[HIT]:
                    self._search_results.append(result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "gramclust" or name.startswith("gramclust."))
        ]
        for qualified in TRACED:
            module_name, attr = qualified.rsplit(".", 1)
            module = sys.modules.get(f"gramclust.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(qualified)
                continue
            wrapper = self._wrap(qualified, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def per_op_totals(spans: list[list]) -> dict:
    """{op: {"<fn>.self_s": seconds, "<fn>.calls": count, "<fn>.time_s": ...}}.

    ``time_s`` is the summed span duration, children included.
    """
    totals: dict = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        row = totals[span[OP]]
        row[f"{span[NAME]}.self_s"] += own
        row[f"{span[NAME]}.calls"] += 1
        row[f"{span[NAME]}.time_s"] += span[END] - span[START]
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--op", type=int, required=True)
    parser.add_argument("--role", default="op")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import gramclust.cli

    tracer = Tracer()
    tracer.install()
    tracer.op = args.op
    tracer.role = args.role
    try:
        return gramclust.cli.main(cli_args)
    finally:
        with open(args.spans, "w") as fh:
            json.dump({"spans": tracer.spans, "absent": tracer.absent}, fh)


if __name__ == "__main__":
    sys.exit(main())
