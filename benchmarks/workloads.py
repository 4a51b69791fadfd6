"""The four workloads: seeded inputs, one timed operation, and its checks.

Inputs are generated here with numpy alone, never with gramclust's own
generators, so a change to the program cannot change what it is given.
Each workload runs in rounds.  A round replays a fixed corpus of matrices,
each relabelled by a permutation drawn from the run seed.  Whole rounds
keep the mix of instances, and so the medians, the same from run to run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER_SCRIPT = HERE / "tracer.py"

# Seed of the fixed corpus of matrices whose cost varies most from draw to
# draw (see README): the run seed permutes them instead of redrawing them.
CORPUS_SEED = 9064816
MU_EPSILON = 1e-4
OP_TIMEOUT_S = 90.0
# no child outlives this many seconds from the start of the run
RUN_DEADLINE_S = 165.0


@dataclass
class Instance:
    index: int
    label: str
    a: np.ndarray | None
    b: np.ndarray
    path: Path | None = None
    rank: int | None = None


@dataclass
class Op:
    index: int
    label: str
    latency_s: float
    errors: list[str] = field(default_factory=list)
    rss_mb: float | None = None
    report: dict | None = None
    quality: dict = field(default_factory=dict)
    # True when the program produced an output and a check on it failed;
    # an operation that ends in an error produces no output
    wrong: bool = False

    @property
    def ok(self) -> bool:
        return not self.errors

    def fail_checks(self, errors: list[str]) -> None:
        self.errors.extend(errors)
        self.wrong = self.wrong or bool(errors)


# ---------------------------------------------------------------------------
# input generators


def centered_gram(u: np.ndarray) -> np.ndarray:
    u = u - u.mean(axis=0)
    a = u @ u.T
    return (a + a.T) / 2.0


def wishart_a(n: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank centered Wishart matrix (n points in R^n)."""
    return centered_gram(rng.standard_normal((n, n)))


def planted_a(n: int, rng: np.random.Generator, clusters: int = 3, dim: int = 10) -> np.ndarray:
    """Centered Gram matrix of a balanced mixture of ``clusters`` Gaussians."""
    labels = rng.permutation(np.arange(n) % clusters)
    centers = 2.0 * rng.standard_normal((clusters, dim))
    return centered_gram(centers[labels] + rng.standard_normal((n, dim)))


def random_b(k: int, rng: np.random.Generator, dim: int | None = None) -> np.ndarray:
    """PSD k x k Wishart matrix; full rank when dim >= k."""
    dim = dim or k + 3
    g = rng.standard_normal((k, dim))
    return g @ g.T / dim


def near_identity_b(k: int, rng: np.random.Generator) -> np.ndarray:
    """I_k plus a small rank-one PSD term."""
    g = rng.standard_normal((k, 1))
    return np.eye(k) + 0.1 * g @ g.T


def repeated_b(k: int, distinct: int, rng: np.random.Generator) -> np.ndarray:
    """Gram matrix of k vectors taking only ``distinct`` different values."""
    v = rng.standard_normal((distinct, distinct)) / np.sqrt(distinct)
    rows = v[rng.permutation(np.arange(k) % distinct)]
    return rows @ rows.T


def permuted(m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    p = rng.permutation(m.shape[0])
    return m[np.ix_(p, p)]


# ---------------------------------------------------------------------------
# running operations


@dataclass
class Context:
    work: Path
    toy: bool
    deadline: float = field(default_factory=lambda: time.perf_counter() + RUN_DEADLINE_S)
    tracer: Tracer | None = None
    # span lists of traced child processes: (role, spans)
    child_spans: list = field(default_factory=list)
    absent: set = field(default_factory=set)

    @property
    def env(self) -> dict:
        path = os.environ.get("PYTHONPATH")
        return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def spawn(cmd: list[str], ctx: Context, stderr_path: Path):
    """Run a child to completion; (exit code, wall seconds, peak RSS MB).

    The child is killed after OP_TIMEOUT_S, or at the run's deadline.
    """
    timeout = max(1.0, min(OP_TIMEOUT_S, ctx.deadline - time.perf_counter()))
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=ctx.env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def _stderr_tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def write_input(path: Path, a: np.ndarray | None, b: np.ndarray) -> Path:
    doc = {"B": b.tolist()}
    if a is not None:
        doc["A"] = a.tolist()
    path.write_text(json.dumps(doc))
    return path


def cli_command(ctx: Context, args: list[str], op: int, role: str) -> list[str]:
    """``python -m gramclust.cli`` or, when tracing, the traced stand-in."""
    if ctx.tracer is None:
        return [sys.executable, "-m", "gramclust.cli", *args]
    spans = ctx.work / f"spans-{role}-{op}.json"
    return [sys.executable, str(TRACER_SCRIPT), "--spans", str(spans),
            "--op", str(op), "--role", role, "--", *args]


def collect_child_spans(ctx: Context, op: int, role: str) -> None:
    if ctx.tracer is None:
        return
    path = ctx.work / f"spans-{role}-{op}.json"
    if path.exists():
        doc = json.loads(path.read_text())
        ctx.child_spans.append((role, doc["spans"]))
        ctx.absent.update(doc["absent"])
        path.unlink()


def read_report(path: Path):
    try:
        return json.loads(path.read_text()), None
    except (OSError, json.JSONDecodeError) as exc:
        return None, f"report does not parse: {exc}"


def cluster_quality(report: dict) -> dict:
    r2 = report["ball"]["r2"]
    upper = r2 * report["sdp"]["dual_upper"]
    return {
        "cert_gap_rel": 1.0 - report["rounding"]["best_value"] / upper,
        "cb_over_r2": report["cb"]["c_estimate"] / r2,
    }


def finish_cluster_op(op: Op, report, error, inst: Instance) -> Op:
    """Check a cluster report and record its quality terms."""
    if error:
        op.errors.append(error)
        return op
    op.report = report
    op.fail_checks(checks.check_cluster_report(report, inst.a, inst.b))
    if not op.errors:
        op.quality = cluster_quality(report)
    return op


class Workload:
    name = ""
    in_process = False
    cluster = True

    def __init__(self, rng: np.random.Generator, ctx: Context):
        self.rng = rng
        self.ctx = ctx
        self.count = 0
        # the fixed matrices of one round; make() relabels one entry
        self.corpus: list = []

    def setup(self) -> float:
        """Work done once before timing; returns its cost in seconds."""
        return 0.0

    def make(self, entry) -> Instance:
        raise NotImplementedError

    def round(self) -> list[Instance]:
        return [self.make(entry) for entry in self.corpus]

    def _next(self, label: str, a, b) -> Instance:
        inst = Instance(self.count, label, a, b)
        self.count += 1
        if self.cluster:
            inst.path = write_input(self.ctx.work / f"input-{inst.index}.json", a, b)
        return inst

    def run(self, inst: Instance) -> Op:
        raise NotImplementedError

    def probe(self, inst: Instance, first: Op) -> Op | None:
        """Determinism probe: re-run ``inst`` with --threads 2 and compare."""
        return None

    def before_traced_pass(self) -> None:
        """Called once the tracer is installed, before the traced pass."""


def compare_probe(inst: Instance, first: Op, report, error, seconds: float) -> Op:
    """The probe fails unless its report matches ``first`` byte for byte,
    timestamp aside."""
    op = Op(inst.index, f"probe {inst.label} --threads 2", seconds)
    if error:
        op.errors.append(f"determinism probe: {error}")
    elif first.report is None:
        op.errors.append("determinism probe: the first run produced no report")
    elif checks.canonical(report) != checks.canonical(first.report):
        op.fail_checks(["determinism probe: --threads 2 report differs from --threads 1"])
    return op


class CliWorkload(Workload):
    """One ``gramclust cluster`` subprocess per instance."""

    trials = 100

    def _args(self, inst: Instance, out: Path, threads: int) -> list[str]:
        return ["cluster", str(inst.path), "--trials", str(self.trials),
                "--threads", str(threads), "--out", str(out)]

    def _spawn(self, inst: Instance, threads: int, role: str, out: Path):
        out.unlink(missing_ok=True)
        cmd = cli_command(self.ctx, self._args(inst, out, threads), inst.index, role)
        err = self.ctx.work / f"stderr-{inst.index}.txt"
        code, seconds, rss = spawn(cmd, self.ctx, err)
        collect_child_spans(self.ctx, inst.index, role)
        if code != 0:
            return None, f"exit code {code}: {_stderr_tail(err)}", seconds, rss
        report, error = read_report(out)
        return report, error, seconds, rss

    def run(self, inst: Instance) -> Op:
        out = self.ctx.work / f"report-{inst.index}.json"
        report, error, seconds, rss = self._spawn(inst, 1, "op", out)
        op = Op(inst.index, inst.label, seconds, rss_mb=rss)
        return finish_cluster_op(op, report, error, inst)

    def probe(self, inst: Instance, first: Op) -> Op:
        out = self.ctx.work / f"probe-{inst.index}.json"
        report, error, seconds, _ = self._spawn(inst, 2, "probe", out)
        return compare_probe(inst, first, report, error, seconds)

    def make(self, entry):
        label, a, b = entry
        return self._next(label, permuted(a, self.rng), permuted(b, self.rng))


class NoiseN(CliWorkload):
    name = "noise-n"
    sizes = (300, 375, 450)
    toy_sizes = (16, 24)

    def __init__(self, rng, ctx):
        super().__init__(rng, ctx)
        for n in self.toy_sizes if ctx.toy else self.sizes:
            corpus = np.random.default_rng([CORPUS_SEED, n])
            self.corpus.append((f"n={n} k=3", wishart_a(n, corpus), random_b(3, corpus)))


class WideK(CliWorkload):
    name = "wide-k"
    # (n, kind of A, kind of B)
    mix = ((8, "planted", "wishart"), (9, "noise", "near-identity"))
    toy_mix = ((5, "planted", "wishart"), (6, "noise", "near-identity"))

    def __init__(self, rng, ctx):
        super().__init__(rng, ctx)
        corpus = np.random.default_rng([CORPUS_SEED, 4])
        for n, a_kind, b_kind in self.toy_mix if ctx.toy else self.mix:
            a = planted_a(n, corpus, dim=4) if a_kind == "planted" else wishart_a(n, corpus)
            b = random_b(4, corpus, dim=4) if b_kind == "wishart" else near_identity_b(4, corpus)
            self.corpus.append((f"n={n} A={a_kind} B={b_kind}", a, b))

    def run(self, inst: Instance) -> Op:
        op = super().run(inst)
        if op.ok:
            self._oracle(inst, op)
        return op

    def _oracle(self, inst: Instance, op: Op) -> None:
        """Exact Clust from ``gramclust oracle`` in its own process, untimed."""
        out = self.ctx.work / f"oracle-{inst.index}.json"
        args = ["oracle", str(inst.path), "--out", str(out)]
        err = self.ctx.work / f"stderr-oracle-{inst.index}.txt"
        code, _, _ = spawn(cli_command(self.ctx, args, inst.index, "check"), self.ctx, err)
        collect_child_spans(self.ctx, inst.index, "check")
        if code != 0:
            op.errors.append(f"oracle exit code {code}: {_stderr_tail(err)}")
            return
        report, error = read_report(out)
        if error:
            op.errors.append(f"oracle {error}")
            return
        clust = float(report["clust_value"])
        op.fail_checks(checks.check_oracle(op.report, clust))
        op.quality["oracle_gap_rel"] = 1.0 - op.report["rounding"]["best_value"] / clust
        op.quality["states"] = inst.b.shape[0] ** inst.a.shape[0]


class OneBBatch(Workload):
    """In-process ``cli.main`` calls: many A against one B, C(B) cached."""

    name = "one-b-batch"
    in_process = True
    # an odd count per round puts the median on one operation, not between two
    sizes = (150, 175, 200, 225, 250) * 3
    toy_sizes = (16, 24)
    trials = 2000

    def __init__(self, rng, ctx):
        super().__init__(rng, ctx)
        corpus = np.random.default_rng([CORPUS_SEED, 3])
        self.b = permuted(random_b(3, corpus), rng)
        self.warmup_a = planted_a(30, corpus)
        self.corpus = [planted_a(n, corpus) for n in (self.toy_sizes if ctx.toy else self.sizes)]

    def make(self, a):
        return self._next(f"n={a.shape[0]} k=3", permuted(a, self.rng), self.b)

    def _call(self, inst: Instance, out: Path, threads: int):
        import gramclust.cli

        argv = ["cluster", str(inst.path), "--trials", str(self.trials),
                "--threads", str(threads), "--out", str(out)]
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            # looked up on the module so a traced run reaches the wrapper
            code = gramclust.cli.main(argv)
        except Exception as exc:  # the operation failed; record it and go on
            return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
        seconds = time.perf_counter() - start
        if code != 0:
            return None, f"exit code {code}", seconds
        report, error = read_report(out)
        return report, error, seconds

    def setup(self) -> float:
        """Warm-up call on a separate A: fills the C(B) cache."""
        import gramclust.cli  # noqa: F401  (imported before the clock starts)

        self.warmup = self._next("warm-up", self.warmup_a, self.b)
        _, error, seconds = self._call(self.warmup, self.ctx.work / "warmup.json", 1)
        if error:
            raise RuntimeError(f"warm-up call failed: {error}")
        return seconds

    def before_traced_pass(self) -> None:
        """Repeat the warm-up under the tracer so it sees the cached result."""
        self.ctx.tracer.op = -1
        self._call(self.warmup, self.ctx.work / "warmup.json", 1)

    def run(self, inst: Instance) -> Op:
        if self.ctx.tracer is not None:
            self.ctx.tracer.op = inst.index
        report, error, seconds = self._call(inst, self.ctx.work / f"report-{inst.index}.json", 1)
        return finish_cluster_op(Op(inst.index, inst.label, seconds), report, error, inst)

    def probe(self, inst: Instance, first: Op) -> Op:
        report, error, seconds = self._call(inst, self.ctx.work / "probe.json", 2)
        return compare_probe(inst, first, report, error, seconds)


class BGeometry(Workload):
    """In-process chain gram_factorize -> min_enclosing_ball -> build_mu ->
    dictatorship_objective on B alone."""

    name = "b-geometry"
    in_process = True
    cluster = False
    # (kind, k, rank or number of distinct vectors); an odd count of shapes
    # puts the median inside one shape's latencies, not in a gap between two
    mix = (
        ("full", 2, 2), ("full", 3, 3), ("full", 4, 4), ("full", 5, 5), ("full", 8, 8),
        ("full", 10, 10), ("low-rank", 16, 4), ("low-rank", 64, 8), ("repeated", 32, 6),
        ("repeated", 48, 10), ("full", 12, 12), ("full", 24, 24), ("repeated", 64, 16),
    )
    draws = 4

    def __init__(self, rng, ctx):
        super().__init__(rng, ctx)
        corpus = np.random.default_rng([CORPUS_SEED, 5])
        for _ in range(1 if ctx.toy else self.draws):
            for kind, k, r in self.mix:
                if kind == "full":
                    b = random_b(k, corpus, dim=k)
                elif kind == "low-rank":
                    b = random_b(k, corpus, dim=r)
                else:
                    b = repeated_b(k, r, corpus)
                self.corpus.append((f"{kind} k={k} rank={r}", b, r))

    def make(self, entry):
        label, b, rank = entry
        inst = self._next(label, None, permuted(b, self.rng))
        inst.rank = rank
        return inst

    def run(self, inst: Instance) -> Op:
        from gramclust import ball, hardness, matrixcore

        if self.ctx.tracer is not None:
            self.ctx.tracer.op = inst.index
        b = matrixcore.SymMatrix(inst.b)
        start = time.perf_counter()
        try:
            gf = matrixcore.gram_factorize(b)
            enclosing = ball.min_enclosing_ball(gf)
            dist = hardness.build_mu(enclosing, MU_EPSILON)
            value = hardness.dictatorship_objective(b, dist)
        except Exception as exc:  # the operation failed; record it and go on
            op = Op(inst.index, inst.label, time.perf_counter() - start)
            op.errors.append(f"{type(exc).__name__}: {exc}")
            return op
        op = Op(inst.index, inst.label, time.perf_counter() - start)
        r2 = enclosing.radius ** 2
        op.fail_checks(checks.check_geometry(inst.b, gf.vectors, enclosing.center, r2, value, MU_EPSILON))
        if not op.errors and inst.rank <= 10:
            diag = np.diag(inst.b)
            half_diam2 = float(np.max(diag[:, None] + diag[None, :] - 2.0 * inst.b)) / 4.0
            op.quality = {"cert_gap_rel": 1.0 - half_diam2 / r2, "cb_over_r2": value / r2}
        return op


WORKLOADS = {w.name: w for w in (NoiseN, WideK, OneBBatch, BGeometry)}
