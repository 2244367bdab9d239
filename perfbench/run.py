"""limitalg benchmark: seeded CLI workloads driven in-process.

One client, closed loop: each query is issued after the previous one
returns, through ``limitalg.cli.run()`` in this single-threaded process.
A seed picks a *pass* of at least 100 queries (see workloads.py); the
run repeats whole passes, at least two, so the query mix is the same in
every run, and times each query by the median of its repeats.  End-to-end
times are in reference seconds, scaled for the host's speed (speed.py);
the raw wall-clock figures are printed on the line before the result.

    python3 perfbench/run.py --workload tower-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, each in its own process
    python3 perfbench/run.py --record-golden [--workload W]  # rewrite golden.json

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of
one traced pass, run after two untraced ones, and the spans go to
``perfbench/out/``.  The library is imported from ``src/`` of the
checkout holding this file; without it the run exits with status 2.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
SETUP_REPEATS = 5
LIB_MODULES = ("cli", "tower", "parser", "crossed", "peters")


class SetupError(Exception):
    pass


def load_library() -> types.SimpleNamespace:
    """Import limitalg afresh from the checkout's src/ directory."""
    if not (SRC / "limitalg" / "__init__.py").is_file():
        raise SetupError(f"no limitalg package under {SRC}")
    for name in [n for n in sys.modules
                 if n == "limitalg" or n.startswith("limitalg.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("limitalg")
    if Path(pkg.__file__).resolve().parent != SRC / "limitalg":
        raise SetupError(f"limitalg imported from {pkg.__file__}")
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"limitalg.{m}") for m in LIB_MODULES})


def resolve(argv: tuple[str, ...], paths: dict[str, str]) -> list[str]:
    return [paths[a[1:]] if a.startswith("@") else a for a in argv]


def run_query(lib, argv: list[str]) -> tuple[object, str, float]:
    """(exit code or exception name, stdout, seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = lib.cli.run(argv)
        except Exception as exc:  # a crash is a failed query, not a crashed run
            rc = f"raised {type(exc).__name__}"
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


class Results:
    """Outputs, timings and calibration kernels of one run.

    Per distinct query: its first output, how often it ran, and how many
    repeats printed something else.  Every execution keeps its pass,
    query index, start and wall time; scaled times are in reference
    seconds (see speed.py).
    """

    def __init__(self, n: int):
        self.first: list = [None] * n
        self.runs = [0] * n
        self.differ = [0] * n
        self.executions: list[tuple[int, int, float, float]] = []
        self.kernels: list[tuple[float, float]] = []
        self.passes = 0

    def add(self, i: int, rc, out: str, start: float, dt: float) -> None:
        self.runs[i] += 1
        if self.first[i] is None:
            self.first[i] = (rc, out)
        elif self.first[i] != (rc, out):
            self.differ[i] += 1
        self.executions.append((self.passes, i, start, dt))

    def times(self, scaled: bool) -> list[float]:
        """Seconds of every execution, in order."""
        raw = [dt for _, _, _, dt in self.executions]
        if not scaled:
            return raw
        factors = speed.scales([(t, dt) for _, _, t, dt in self.executions],
                               self.kernels)
        return [dt * f for dt, f in zip(raw, factors)]

    def latencies(self, scaled: bool = True) -> list[float]:
        """Each query's median over its repeats."""
        per_query: list[list[float]] = [[] for _ in self.runs]
        for (_, i, _, _), dt in zip(self.executions, self.times(scaled)):
            per_query[i].append(dt)
        return [statistics.median(v) for v in per_query]

    def pass_seconds(self, p: int) -> float:
        """Scaled seconds of pass p."""
        return sum(dt for (q, _, _, _), dt in zip(self.executions,
                                                  self.times(True))
                   if q == p)


def run_pass(lib, queries: list[list[str]], results: Results,
             tracer: tracing.Tracer | None = None) -> None:
    """Issue every query once, in order, between calibration kernels."""
    results.kernels.append(speed.kernel_sample())
    for i, argv in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        start = time.perf_counter()
        rc, out, dt = run_query(lib, argv)
        results.kernels.append(speed.kernel_sample())
        results.add(i, rc, out, start, dt)
    results.passes += 1


def run_passes(lib, queries: list[list[str]], results: Results,
               seconds: float) -> None:
    """At least MIN_PASSES whole passes, then more while the next one is
    expected to end within `seconds`."""
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        run_pass(lib, queries, results)
        now = time.perf_counter()
        if (results.passes >= MIN_PASSES
                and now - start + (now - t_pass) > seconds):
            return


def check_results(checker: checks.Checker, wl, results: Results) -> int:
    """Failed executions; each failing query is described on stderr."""
    failed = 0
    for i, argv in enumerate(wl.queries):
        qid = workloads.query_id(argv)
        problems = checker.check(qid, argv, *results.first[i])
        if results.differ[i]:
            problems.append(f"{results.differ[i]} repeats gave other output")
        if problems:
            failed += results.runs[i]
            print("FAIL", qid, "; ".join(problems), file=sys.stderr)
    return failed


def setup(name: str, seed: int, workdir: Path):
    """Import, input generation and warm-up; timed as set-up."""
    t0 = time.perf_counter()
    lib = load_library()
    wl = workloads.build(name, seed, lib)
    paths = {}
    for fname, text in wl.files.items():
        p = workdir / fname
        p.write_text(text)
        paths[fname] = str(p)
    warm = [run_query(lib, resolve(q, paths)) for q in wl.warmup]
    return time.perf_counter() - t0, lib, wl, paths, warm


def load_golden() -> dict:
    with open(HERE / "golden.json") as fh:
        return json.load(fh)


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def layer_metrics(tracer: tracing.Tracer, untraced_qps: float,
                  traced_qps: float, output_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced pass, keyed by metric name."""
    c = tracer.counts
    m: dict[str, float] = {}
    for modname, path in tracing.SPANNED:
        name = f"{modname}.{path}"
        m[f"{name}.calls"] = c.get(f"{name}.calls", 0)
        m[f"{name}.s"] = tracer.total_time.get(name, 0.0)
        m[f"{name}.self_s"] = tracer.self_time.get(name, 0.0)
    for _, _, name in tracing.COUNTED:
        m[f"{name}.calls"] = c.get(f"{name}.calls", 0)
    for name in ("tower.embed_unit.units_out", "parser.input_bytes",
                 "peters.sequences_out", "crossed.ideals_out",
                 "linalg.rref.cells"):
        m[name] = c.get(name, 0)
    calls = c.get("links.certify_linkless.calls", 0)
    m["links.certified_ratio"] = (
        c.get("links.certify_linkless.certified", 0) / calls if calls else 0.0)
    cells = c.get("linalg.rref.cells", 0)
    m["linalg.rref.density"] = (c.get("linalg.rref.nonzero", 0) / cells
                                if cells else 0.0)
    m["cli.output_bytes"] = output_bytes
    m["trace.queries_per_s"] = traced_qps
    m["trace.untraced_queries_per_s"] = untraced_qps
    m["trace.overhead_ratio"] = untraced_qps / traced_qps
    return m


def run_workload(args) -> int:
    spec = benchmark_spec()
    golden = load_golden().get(args.workload, {})
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            kernels = [speed.kernel_time() for _ in range(3)]
            dt, lib, wl, paths, warm = setup(args.workload, args.seed,
                                             Path(tmp))
            kernels += [speed.kernel_time() for _ in range(3)]
            raw_setups.append(dt)
            setups.append(dt * speed.REFERENCE_S / statistics.fmean(kernels))
        checker = checks.Checker(lib, wl.files, golden)
        queries = [resolve(q, paths) for q in wl.queries]
        n_pass = len(queries)

        results = Results(n_pass)
        if not args.trace:
            run_passes(lib, queries, results, args.seconds)
            lat = results.latencies()
            raw = results.latencies(scaled=False)
            values = {
                "queries_per_s": n_pass / sum(lat),
                "query_p50_ms": statistics.median(lat) * 1e3,
                "query_p90_ms": p90(lat) * 1e3,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            wanted = spec["end_to_end"]
            passes = results.passes
            note = (f"{passes} passes of {n_pass} queries, each query timed "
                    f"by the median of its {passes} repeats: {n_pass} latency "
                    f"samples, {n_pass - int(0.9 * n_pass)} at or beyond p90; "
                    f"raw wall-clock: {n_pass / sum(raw):.4g} queries/s, "
                    f"p50 {statistics.median(raw) * 1e3:.4g} ms, "
                    f"p90 {p90(raw) * 1e3:.4g} ms, "
                    f"setup {statistics.median(raw_setups):.4g} s")
        else:
            # two untraced passes (the first warms up), then the same
            # pass traced; every repeat must print the same bytes
            run_pass(lib, queries, results)
            run_pass(lib, queries, results)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                run_pass(lib, queries, results, tracer)
            finally:
                tracer.uninstall()
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.write_spans(
                out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            values = layer_metrics(
                tracer, n_pass / results.pass_seconds(1),
                n_pass / results.pass_seconds(2),
                sum(len(out.encode()) for _, out in results.first))
            wanted = spec["per_layer"]
            note = (f"2 untraced + 1 traced pass of {n_pass} queries; "
                    f"{len(tracer.spans)} spans")

        failed = check_results(checker, wl, results)
        for q, (rc, out, _) in zip(wl.warmup, warm):
            problems = checker.check(workloads.query_id(q), q, rc, out)
            if problems:
                failed += 1
                print("FAIL warm-up", workloads.query_id(q), problems,
                      file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SetupError(f"metrics not produced: {missing}")
    attempted = sum(results.runs)
    print(f"# {args.workload} seed {args.seed}: {note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, one after the other."""
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        rows.append((name, result))
    for name, result in rows:
        err = result["failed"] / result["attempted"]
        print(f"\n{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"error_rate={err:.4f} ratio")
        for metric, v in result["metrics"].items():
            print(f"  {metric:48s} {v['value']:14.6g} {v['unit']}")
        if not result["correct"]:
            status = 1
    return status


def record_golden(args) -> int:
    """Run every pool query once; store exit codes and stdout digests."""
    names = [args.workload] if args.workload else workloads.WORKLOADS
    golden = load_golden() if args.workload else {}
    bad = 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        lib = load_library()
        for name in names:
            pool = workloads.pool(name, lib)
            paths = {}
            for fname, text in pool.files.items():
                p = Path(tmp) / fname
                p.write_text(text)
                paths[fname] = str(p)
            checker = checks.Checker(lib, pool.files, None)
            entries = {}
            t0 = time.perf_counter()
            for q in pool.warmup + pool.queries:
                qid = workloads.query_id(q)
                if qid in entries:
                    continue
                rc, out, _ = run_query(lib, resolve(q, paths))
                problems = checker.check(qid, q, rc, out)
                if problems:
                    bad += 1
                    print("FAIL", qid, problems, file=sys.stderr)
                entries[qid] = [rc, checks.digest(out)]
            golden[name] = entries
            print(f"{name}: {len(entries)} queries in "
                  f"{time.perf_counter() - t0:.1f} s")
    if bad:
        print(f"{bad} queries fail their invariants; golden.json not written",
              file=sys.stderr)
        return 1
    with open(HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.record_golden:
            return record_golden(args)
        if args.workload is None:
            return run_all(args)
        return run_workload(args)
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
