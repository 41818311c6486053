#!/usr/bin/env python3
"""TAG-join benchmark: one workload, one local Spark session, one client.

    python3 perfbench/run.py --workload tpch-reduce --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The run is a closed loop with a single client: set-up, a
correctness check against DuckDB, warm-up, then timed rounds that fill a
window of ``--seconds`` seconds. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
separately traced run. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with samples, quartiles, drift and the environment. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SF = 0.005
CORES = min(4, os.cpu_count() or 1)
SHUFFLE_PARTITIONS = 64
DRIVER_MEMORY = "1g"
SETUP_REPS = 3
MIN_ROUNDS = 3
SQL_WARMUP_PASSES = 6
SQL_PASSES_PER_ROUND = 4


@dataclass(frozen=True)
class Workload:
    db: str  # "tpch" | "tpcds"
    queries: tuple[str, ...]
    stats: bool  # run_tag(..., stats=...) in timed passes


WORKLOADS = {
    # Acyclic 3-way join; most of its time is reduce_phase's job fan-out.
    "tpch-reduce": Workload("tpch", ("q3",), stats=False),
    # Zipf-skewed keys with NULLs; a semijoin reduction in metered mode.
    "tpcds-metered": Workload("tpcds", ("ds_q37",), stats=True),
}

END_TO_END = {
    "setup_s": "s", "tag_pass_s": "s", "spark_sql_pass_s": "s",
    "tag_messages": "count", "peak_rss_mb": "MB", "success_rate": "ratio",
}
PER_LAYER = {
    "synth.s": "s", "tag.encode_s": "s", "tag.materialize_s": "s",
    "tag.jobs": "count", "tag.tuple_vertices": "count", "tag.edges": "count",
    "tag.cached_mb": "MB",
    "plan.s": "s", "plan.labels": "count", "tagjoin.finalize_s": "s",
    "reduction.s": "s", "reduction.jobs": "count", "reduction.stages": "count",
    "reduction.tasks": "count", "reduction.supersteps": "count",
    "reduction.messages": "count", "reduction.kept_ratio": "ratio",
    "collection.s": "s", "collection.jobs": "count",
    "collection.messages": "count",
    "execute.s": "s", "execute.jobs": "count", "execute.stages": "count",
    "execute.tasks": "count", "execute.rows": "count",
    "spark_sql.jobs": "count", "spark_sql.stages": "count",
    "spark_sql.tasks": "count",
    "spark.failed_tasks": "count", "spark.cached_rdd_growth": "count",
    "trace.overhead_ratio": "ratio", "trace.count_mismatches": "count",
}


def table_seed(seed: int, db: str, table: str) -> int:
    """Per-table generator seed derived from the workload seed."""
    return zlib.crc32(f"{db}:{table}:{seed}".encode())


def quartiles(xs: list[float]) -> dict:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    half = len(xs) // 2
    return {
        "n": len(xs), "p25": q[0], "p50": statistics.median(xs), "p75": q[2],
        "first_half_p50": statistics.median(xs[:half]) if half else None,
        "second_half_p50": statistics.median(xs[half:]),
        "values": xs,
    }


class Bench:
    def __init__(self, spark, workload: Workload, seed: int, seconds: float,
                 trace: bool):
        from pyspark.sql import functions as F

        from repro import oracle, synth_data
        from repro.core import tagjoin
        from repro.core.tag import TID, TAGGraph
        from repro.tpcds import queries as ds_queries
        from repro.tpcds import synth as ds_synth
        from repro.tpch import queries as h_queries

        from layers import Tracer

        self.F, self.TID, self.TAGGraph = F, TID, TAGGraph
        self.oracle, self.tagjoin = oracle, tagjoin
        self.spark, self.sc = spark, spark.sparkContext
        self.wl, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        if workload.db == "tpch":
            gens, catalog = synth_data.TPCH_TABLES, h_queries.QUERIES
        else:
            gens, catalog = ds_synth.TPCDS_TABLES, ds_queries.QUERIES
        self.queries = {n: catalog[n] for n in workload.queries}
        self.gens = {t: gens[t] for t in sorted({t for q in self.queries.values()
                                                 for t in q.tables})}
        self.tracer = Tracer(spark)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {
            "setup_s": [], "load_s": [], "tag_pass_s": [], "spark_sql_pass_s": [],
            "traced_tag_pass_s": []}
        self.expected_rows: dict[str, int] = {}
        self.messages: dict[str, dict[str, int]] = {}
        self.tables = {}
        self.graph = None
        self.loads: list[tuple[dict[str, int], object]] = []
        self.tag_passes_after_setup = 0
        self.timeline: dict[str, float] = {}

    # -- bookkeeping ------------------------------------------------------

    def attempt(self, what: str, fn, *args):
        """Run one execution; exceptions and mismatches count as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # noqa: BLE001 - every failure is reported
            self.failed += 1
            msg = f"{what}: {type(e).__name__}: {e}".splitlines()[0][:300]
            self.errors.append(msg)
            print(f"perfbench: FAILED {msg}", file=sys.stderr)
            return None

    def persistent_rdds(self) -> int:
        return self.sc._jsc.getPersistentRDDs().size()

    def cached_mb(self) -> float:
        infos = self.sc._jsc.sc().getRDDStorageInfo()
        return sum(i.memSize() for i in infos) / 1e6

    # -- set-up: generate, cache, encode, materialize -----------------------

    def setup(self) -> None:
        tr = self.tracer
        if self.trace:
            tr.begin("setup")
        t0 = time.perf_counter()
        frames, _ = tr.call("synth", lambda: {
            t: gen(self.spark, sf=SF, seed=table_seed(self.seed, self.wl.db, t))
            for t, gen in self.gens.items()})
        tables = {t: f.cache() for t, f in frames.items()}
        rows = {t: f.count() for t, f in tables.items()}
        t1 = time.perf_counter()
        graph, _ = tr.call("tag.encode", self.TAGGraph.encode, self.spark, tables)
        stats, _ = tr.call("tag.materialize", graph.materialize)
        t2 = time.perf_counter()
        tr.end()
        self.samples["setup_s"].append(t2 - t0)
        self.samples["load_s"].append(t2 - t1)
        self.setup_counts = {
            "tuple_vertices": stats.total_tuple_vertices,
            "edges": stats.total_edges, "cached_mb": self.cached_mb()}
        self.tables, self.graph = tables, graph
        self.loads.append((rows, stats))

    def check_loads(self) -> None:
        """For every set-up: tuple vertices equal source rows and each edge
        label equals its column's non-null count. For the final graph:
        ``__tid`` is unique within each relation. One aggregate per relation
        gives all three counts."""
        F, TID = self.F, self.TID
        truth = {}
        for t, tuples in self.graph.tuples.items():
            cols = sorted(self.graph.edges[t])
            r = tuples.agg(F.count(F.lit(1)), F.countDistinct(TID),
                           *[F.count(F.col(c)) for c in cols]).first()
            truth[t] = (r[0], r[1], {f"{t}.{c}": n for c, n in zip(cols, r[2:])})
        nonnull = {k: n for _, _, by_label in truth.values()
                   for k, n in by_label.items()}

        def check(rows, stats):
            bad = [t for t, (n, _, _) in truth.items()
                   if not rows[t] == stats.tuple_vertices.get(t) == n]
            bad += [k for k in nonnull.keys() | stats.edges.keys()
                    if stats.edges.get(k) != nonnull.get(k)]
            if bad:
                raise AssertionError(f"load mismatch on {sorted(bad)}")
            return True

        def tids_unique():
            dup = {t: n - d for t, (n, d, _) in truth.items() if n != d}
            if dup:
                raise AssertionError(f"duplicate {TID}s per relation: {dup}")
            return True

        for i, (rows, stats) in enumerate(self.loads):
            self.attempt(f"load {i}", check, rows, stats)
        self.attempt("tid-unique", tids_unique)

    def unload(self) -> None:
        for df in list(self.graph.tuples.values()) + [
                e for by_col in self.graph.edges.values() for e in by_col.values()
        ] + list(self.tables.values()):
            df.unpersist(blocking=True)

    # -- correctness check (outside the timed window) -----------------------

    def check_queries(self) -> None:
        """Each query's TAG result (metered run) and Spark SQL result against
        DuckDB; the metered run also yields the message counts."""
        for t, df in self.tables.items():
            df.createOrReplaceTempView(t)
        pdfs = {t: df.toPandas() for t, df in self.tables.items()}
        if self.trace:
            self.tracer.begin("check")
        for name, q in self.queries.items():
            oracle_tables = {t: pdfs[t] for t in q.tables}

            def tag_check():
                df, rs = q.run_tag(self.graph, stats=True)
                rows = df.collect()
                got = self.spark.createDataFrame(rows, df.schema)
                self.oracle.assert_equivalent(got, q.sql, **oracle_tables)
                self.expected_rows[name] = len(rows)
                self.messages[name] = {
                    "reduction": rs.total_messages("up") + rs.total_messages("down"),
                    "collection": rs.total_messages("collect"),
                    "total": rs.total_messages()}
                return True

            def sql_check():
                self.oracle.assert_equivalent(
                    self.spark.sql(q.sql), q.sql, **oracle_tables)
                return True

            self.attempt(f"{name} tag check", tag_check)
            self.attempt(f"{name} spark_sql check", sql_check)
        self.tracer.end()
        self.tag_passes_after_setup += 1

    # -- passes -------------------------------------------------------------

    def _rows_ok(self, name: str, rows: list) -> bool:
        if name not in self.expected_rows:
            raise AssertionError("no checked result to compare with")
        if len(rows) != self.expected_rows[name]:
            raise AssertionError(
                f"{len(rows)} rows, checked result has {self.expected_rows[name]}")
        return True

    def tag_pass(self, traced: bool = False) -> float | None:
        """Every query of the mix once via TAG-join; returns the wall time, or
        None if an execution failed."""
        tr = self.tracer
        if traced:
            tr.begin("tag")
        ok = True
        t0 = time.perf_counter()
        for name, q in self.queries.items():
            def execute():
                df, _ = q.run_tag(self.graph, stats=self.wl.stats)
                rows, span = tr.call("execute", df.collect)
                if span is not None:
                    span.counts["rows"] = len(rows)
                return self._rows_ok(name, rows)

            ok &= bool(self.attempt(f"{name} tag", execute))
        dt = time.perf_counter() - t0
        tr.end()
        self.tag_passes_after_setup += 1
        return dt if ok else None

    def sql_pass(self, traced: bool = False) -> float | None:
        tr = self.tracer
        if traced:
            tr.begin("spark_sql")
        ok = True
        t0 = time.perf_counter()
        for name, q in self.queries.items():
            def execute():
                rows, _ = tr.call("spark_sql", self.spark.sql(q.sql).collect)
                return self._rows_ok(name, rows)

            ok &= bool(self.attempt(f"{name} spark_sql", execute))
        dt = time.perf_counter() - t0
        tr.end()
        return dt if ok else None

    def run_round(self, traced: bool = False) -> tuple[float | None, list[float]]:
        tag = self.tag_pass(traced)
        sql = [self.sql_pass(traced) for _ in range(SQL_PASSES_PER_ROUND)]
        return tag, [s for s in sql if s is not None]

    # -- the run ------------------------------------------------------------

    def run(self) -> None:
        start = time.perf_counter()
        for rep in range(SETUP_REPS):
            if rep:
                self.unload()
            self.setup()
        self.check_loads()
        self.timeline["setup_end_s"] = time.perf_counter() - start
        self.tracer.vertices = dict(self.loads[-1][1].tuple_vertices)
        rdds_after_setup = self.persistent_rdds()
        if self.trace:
            self.tracer.install(self.tagjoin)
        self.check_queries()

        self.timeline["check_end_s"] = time.perf_counter() - start
        # Warm-up: the checked executions, then Spark SQL passes, whose
        # sub-second times drift longest.
        for _ in range(SQL_WARMUP_PASSES):
            self.sql_pass()
        window = time.perf_counter()
        self.timeline["warmup_end_s"] = window - start
        # Timed rounds fill the window; a traced run alternates untraced and
        # traced passes within each round.
        deadline = window + self.seconds
        rounds = 0
        while True:
            r0 = time.perf_counter()
            tag, sql = self.run_round()
            if tag is not None:
                self.samples["tag_pass_s"].append(tag)
            self.samples["spark_sql_pass_s"].extend(sql)
            if self.trace:
                tag, _ = self.run_round(traced=True)
                if tag is not None:
                    self.samples["traced_tag_pass_s"].append(tag)
            rounds += 1
            last = time.perf_counter() - r0
            enough = rounds >= (2 if self.trace else MIN_ROUNDS)
            if enough and time.perf_counter() + last > deadline:
                break
            if time.perf_counter() > deadline + 60:
                break  # executions keep failing: report instead of looping
        self.timeline["end_s"] = time.perf_counter() - start
        self.rdd_growth = self.persistent_rdds() - rdds_after_setup
        if self.trace:
            self.tracer.uninstall(self.tagjoin)

    # -- results ------------------------------------------------------------

    def end_to_end(self, peak_rss_mb: float) -> dict[str, float]:
        s = self.samples
        return {
            "setup_s": statistics.median(s["setup_s"]),
            "tag_pass_s": statistics.median(s["tag_pass_s"]),
            "spark_sql_pass_s": statistics.median(s["spark_sql_pass_s"]),
            "tag_messages": sum(m["total"] for m in self.messages.values()),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self) -> tuple[dict[str, float], dict]:
        tr = self.tracer
        med = statistics.median
        setup = tr.pass_totals("setup")
        tag = tr.pass_totals("tag")
        sql = tr.pass_totals("spark_sql")
        check = tr.pass_totals("check")
        out: dict[str, float] = {
            "synth.s": med(p["synth.s"] for p in setup),
            "tag.encode_s": med(p["tag.encode.s"] for p in setup),
            "tag.materialize_s": med(p["tag.materialize.s"] for p in setup),
            "tag.jobs": setup[-1]["tag.encode.jobs"] + setup[-1]["tag.materialize.jobs"],
            "tag.tuple_vertices": self.setup_counts["tuple_vertices"],
            "tag.edges": self.setup_counts["edges"],
            "tag.cached_mb": self.setup_counts["cached_mb"],
            "reduction.messages": sum(m["reduction"] for m in self.messages.values()),
            "collection.messages": sum(m["collection"] for m in self.messages.values()),
            "spark.cached_rdd_growth": self.rdd_growth / self.tag_passes_after_setup,
        }
        kept = sum(p.get("reduction.kept_tids", 0) for p in check)
        total = sum(p.get("reduction.input_tids", 0) for p in check)
        if total:
            out["reduction.kept_ratio"] = kept / total
        # metric -> pass total; layers whose hook ran nowhere in a pass are 0.
        per_pass = {"tagjoin.finalize_s": "tagjoin.finalize.s", **{k: k for k in (
            "plan.s", "plan.labels", "reduction.s", "reduction.jobs",
            "reduction.stages", "reduction.tasks", "reduction.supersteps",
            "collection.s", "collection.jobs", "execute.s", "execute.jobs",
            "execute.stages", "execute.tasks", "execute.rows")}}
        for name, key in per_pass.items():
            if key.rsplit(".", 1)[0] not in tr.layers | {"execute"}:
                continue  # hook missing: noted, not reported
            values = [p.get(key, 0) for p in tag]
            out[name] = med(values) if key.endswith(".s") else values[0]
        for key in ("spark_sql.jobs", "spark_sql.stages", "spark_sql.tasks"):
            out[key] = sql[0][key]
        out["spark.failed_tasks"] = sum(
            v for p in setup + check + tag + sql
            for k, v in p.items() if k.endswith(".failed_tasks"))
        # Exact counts must repeat from pass to pass on the same data.
        mismatched = sorted({
            k for passes in (tag, sql) for p in passes[1:] for k in p
            if not k.endswith(".s") and p[k] != passes[0].get(k)})
        out["trace.count_mismatches"] = len(mismatched)
        untraced = self.samples["tag_pass_s"]
        traced = self.samples["traced_tag_pass_s"]
        if untraced and traced:
            out["trace.overhead_ratio"] = med(traced) / med(untraced) - 1
        missing = sorted(set(PER_LAYER) - set(out))
        notes = {"mismatched_counts": mismatched, "missing_layers": missing,
                 "tracer_notes": sorted(set(tr.notes))}
        return out, notes


def peak_rss_mb(proc) -> float:
    """Peak resident memory of this process plus the Spark JVM, in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open(f"/proc/{proc.pid}/status") as f:
            kb += next(int(line.split()[1]) for line in f
                       if line.startswith("VmHWM:"))
    except (OSError, StopIteration, AttributeError):
        pass
    return kb / 1024


def start_spark():
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # A pre-touched, fixed-size heap keeps peak RSS from depending on when
    # the collector happened to grow the heap.
    java_opts = (f"-Xms{DRIVER_MEMORY} -XX:+AlwaysPreTouch "
                 f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{CORES}]", f"--driver-memory {DRIVER_MEMORY}",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "--conf spark.driver.host=127.0.0.1", "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={shlex.quote(str(WORK / 'spark-local'))}",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then end the gateway JVM and wait until it exits."""
    proc = getattr(spark.sparkContext._gateway, "proc", None)
    spark.stop()
    if proc is None:
        return
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def environment(spark, seed: int) -> dict:
    sc = spark.sparkContext
    return {
        "cores": os.cpu_count(), "master": sc.master, "spark": spark.version,
        "python": platform.python_version(),
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "sf": SF, "seed": seed, "setup_reps": SETUP_REPS,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

    spark = start_spark()
    try:
        bench = Bench(spark, WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace))
        bench.run()
        rss = peak_rss_mb(spark.sparkContext._gateway.proc)
        env = environment(spark, args.seed)
    finally:
        stop_spark(spark)

    if args.trace:
        values, notes = bench.per_layer()
        units = PER_LAYER
    else:
        values, notes = bench.end_to_end(rss), {}
        units = END_TO_END
    report = {
        "workload": args.workload, "trace": args.trace, "env": env,
        "samples": {k: quartiles(v) for k, v in bench.samples.items() if v},
        "setup_counts": bench.setup_counts,
        "messages": bench.messages, "expected_rows": bench.expected_rows,
        "timeline": bench.timeline, "errors": bench.errors, **notes,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
