"""Record, or compare, what every query's TAG run computes and sends.

    python jobs/ledgers.py OUT.json            # record all 25 queries
    python jobs/ledgers.py --diff A.json B.json

At SF 0.005, for each TPC-H and TPC-DS query, ``OUT.json`` records:

- ``rows``: a hash of the sorted result rows of the metered run, and
  ``rows_unmetered`` the same of the first unmetered run;
- ``ledger``: the metered run's supersteps as ``[phase, label, kind,
  messages]``;
- ``reduced_sizes``: the metered run's reduced relation sizes;
- ``jobs``: the median Spark jobs of 3 unmetered passes (run plus
  ``collect``), counted as the tests count them (``tests/sparkjobs.py``).

``--diff`` prints each query's jobs side by side and names every query
whose rows, ledger or reduced sizes differ; it exits with status 1 if any
does. A change to the reduction that claims to keep its semantics must
diff clean against its parent. Floats are hashed at 9 significant digits,
so a sum's run-to-run rounding does not count as a difference.
"""
import hashlib
import json
import os
import statistics
import sys

import _common  # noqa: F401

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

SF = 0.005
EXACT = ("rows", "rows_unmetered", "ledger", "reduced_sizes")


def _rows_hash(rows) -> str:
    def cell(v):
        return f"{v:.9g}" if isinstance(v, float) else repr(v)

    text = "\n".join(sorted("|".join(map(cell, r)) for r in rows))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record(path: str) -> None:
    from repro import synth_data
    from repro.core.tag import TAGGraph
    from repro.harness.tables import job_session
    from repro.tpcds import queries as ds_queries
    from repro.tpcds import synth as ds_synth
    from repro.tpch import queries as h_queries
    from tests.sparkjobs import spark_jobs

    spark = job_session("ledgers")
    spark.sparkContext.setLogLevel("ERROR")
    out = {}
    for make, catalog in ((synth_data.tpch, h_queries.QUERIES),
                          (ds_synth.tpcds, ds_queries.QUERIES)):
        tables = {k: v.cache() for k, v in make(spark, sf=SF).items()}
        graph = TAGGraph.encode(spark, tables)
        graph.materialize()
        for name in sorted(catalog):
            q = catalog[name]
            df, rs = q.run_tag(graph, stats=True)
            entry = {
                "rows": _rows_hash(df.collect()),
                "ledger": [[t.phase, t.label, t.kind, t.messages]
                           for t in rs.traces],
                "reduced_sizes": rs.reduced_sizes,
            }
            unmetered, jobs = [], []
            for _ in range(3):
                jobs.append(spark_jobs(spark, lambda: unmetered.append(
                    q.run_tag(graph)[0].collect())))
            entry["rows_unmetered"] = _rows_hash(unmetered[0])
            entry["jobs"] = statistics.median(jobs)
            out[name] = entry
            print(f"{name}: {entry['jobs']} jobs, "
                  f"{len(entry['ledger'])} supersteps", file=sys.stderr)
        graph.unpersist()
        for t in tables.values():
            t.unpersist()
    spark.stop()
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)


def diff(a_path: str, b_path: str) -> int:
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    bad = 0
    print(f"{'query':8} {'jobs A':>7} {'jobs B':>7}  differs")
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            print(f"{name:8} only in {'A' if name in a else 'B'}")
            bad += 1
            continue
        differs = [k for k in EXACT if a[name][k] != b[name][k]]
        bad += bool(differs)
        print(f"{name:8} {a[name]['jobs']:>7} {b[name]['jobs']:>7}  "
              f"{', '.join(differs) or '-'}")
    print(f"{bad} of {len(a.keys() | b.keys())} queries differ")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        return diff(argv[1], argv[2])
    if len(argv) == 1 and not argv[0].startswith("-"):
        record(argv[0])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
