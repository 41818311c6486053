"""Reproduce the paper's tables: ``python jobs/run.py <table-number…|all>``.

Each table prints its rows and saves structured JSON under results/.
Tables 3–6 and 14 are rebuilt from the saved suites (results/suite_*.json)
without Spark; 8 runs the TPC-H suite (Tables 8/9/10, plus 3/4) and 11 the
TPC-DS suite (Tables 11/12/13, plus 5/6). ``all`` runs every measuring job
in a fixed order, then refreshes EXPERIMENTS.md's measured blocks.

    python jobs/run.py 8          # TPC-H suite: Tables 8/9/10, 3, 4
    python jobs/run.py 3 4 14     # from the saved suites
    python jobs/run.py all        # full reproduction of Tables 1-17
"""
import sys

import _common  # noqa: F401
from repro.harness import tables


def _emit(text: str, data: dict, name: str) -> None:
    print(text)
    tables.save_json(data, name)


def _largest(suite: dict) -> dict:
    return suite["sfs"][str(max(float(s) for s in suite["sfs"]))]


def _on_spark(session: str, run) -> None:
    spark = tables.job_session(session)
    spark.sparkContext.setLogLevel("ERROR")
    run(spark)
    spark.stop()


def _loading(number: int, db: str) -> None:
    _on_spark(f"table{number:02d}", lambda spark: _emit(
        *tables.table_loading(spark, db), f"table{number:02d}_{db}_loading.json"))


def _suite(session: str, db: str, selected) -> None:
    """Run ``db``'s full suite, print its all-queries table and then the
    selected-query tables built from its largest SF."""
    def run(spark):
        suite = tables.run_suite(spark, db)
        tables.save_json(suite, f"suite_{db}.json")
        print(tables.table_all_queries(suite, db)[0])
        for fn, name in selected:
            print()
            _emit(*fn(_largest(suite)), name)
    _on_spark(session, run)


def _from_suite(db: str, fn, name: str) -> None:
    _emit(*fn(_largest(tables.load_json(f"suite_{db}.json"))), name)


def _table14() -> None:
    suites = (tables.load_json("suite_tpch.json"), tables.load_json("suite_tpcds.json"))
    _emit(*tables.table_14(*suites), "table14.json")


def _spark_table(number: int, fn, *args) -> None:
    _on_spark(f"table{number:02d}", lambda spark: _emit(
        *fn(spark, *args), f"table{number:02d}.json"))


JOBS = {
    1: lambda: _loading(1, "tpch"),
    2: lambda: _loading(2, "tpcds"),
    3: lambda: _from_suite("tpch", tables.table_03, "table03.json"),
    4: lambda: _from_suite("tpch", tables.table_04, "table04.json"),
    5: lambda: _from_suite("tpcds", tables.table_05, "table05.json"),
    6: lambda: _from_suite("tpcds", tables.table_06, "table06.json"),
    7: lambda: _spark_table(7, tables.table_07),
    8: lambda: _suite("table08_09_10", "tpch", (
        (tables.table_03, "table03.json"), (tables.table_04, "table04.json"))),
    11: lambda: _suite("table11_12_13", "tpcds", (
        (tables.table_05, "table05.json"), (tables.table_06, "table06.json"))),
    14: _table14,
    15: lambda: _spark_table(15, tables.table_15),
    16: lambda: _spark_table(16, tables.table_distributed, "tpch"),
    17: lambda: _spark_table(17, tables.table_distributed, "tpcds"),
}
JOBS[9] = JOBS[10] = JOBS[8]
JOBS[12] = JOBS[13] = JOBS[11]

#: ``all``: the suites (8, 11) run before 14, which reads them.
ALL = (1, 2, 15, 8, 11, 14, 7, 16, 17)


def main(argv: list[str]) -> None:
    if not argv or any(a != "all" and not (a.isdigit() and int(a) in JOBS) for a in argv):
        sys.exit(f"usage: python jobs/run.py <table-number…|all>; tables: {sorted(JOBS)}")
    for arg in argv:
        if arg != "all":
            JOBS[int(arg)]()
            continue
        for number in ALL:
            print(f"\n===== table {number:02d} =====")
            JOBS[number]()
        import update_experiments

        update_experiments.main()


if __name__ == "__main__":
    main(sys.argv[1:])
