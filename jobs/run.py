"""Reproduce the paper's tables: ``python jobs/run.py <table-number…|all>``.

Each table saves structured JSON under results/ and prints the text its
renderer builds from that JSON, the same text EXPERIMENTS.md holds.
Tables 3–6 and 14 are rebuilt from the saved suites (results/suite_*.json)
without Spark; 8 runs the TPC-H suite (Tables 8/9/10, plus 3/4) and 11 the
TPC-DS suite (Tables 11/12/13, plus 5/6); 14 reads both suites, so rerun
it after 8 or 11. ``all`` runs every measuring job in a fixed order, then
refreshes EXPERIMENTS.md's measured blocks.

    python jobs/run.py 8          # TPC-H suite: Tables 8/9/10, 3, 4
    python jobs/run.py 3 4 14     # from the saved suites
    python jobs/run.py all        # full reproduction of Tables 1-17
"""
import sys

import _common  # noqa: F401
from repro.harness import tables


def _save(number: int, data: dict) -> None:
    """Save table ``number``'s data and print the table rendered from it."""
    marker = f"TABLE{number:02d}"
    tables.save_json(data, tables.RENDERERS[marker][0])
    print(tables.render(marker))


def _on_spark(number: int, run) -> None:
    spark = tables.job_session(f"table{number:02d}")
    spark.sparkContext.setLogLevel("ERROR")
    _save(number, run(spark))
    spark.stop()


#: Tables 3–6: (benchmark, selector over the largest SF's results)
SELECTED = {
    3: ("tpch", tables.table_03),
    4: ("tpch", tables.table_04),
    5: ("tpcds", tables.table_05),
    6: ("tpcds", tables.table_06),
}


def _from_suite(number: int) -> None:
    db, select = SELECTED[number]
    _save(number, select(tables.largest(tables.load_json(f"suite_{db}.json"))))


def _suite(number: int, db: str, selected) -> None:
    """Run ``db``'s full suite, print its all-queries table and then the
    selected-query tables built from its largest SF."""
    _on_spark(number, lambda spark: tables.run_suite(spark, db))
    for n in selected:
        print()
        _from_suite(n)


def _table14() -> None:
    suites = (tables.load_json("suite_tpch.json"), tables.load_json("suite_tpcds.json"))
    _save(14, tables.table_14(*suites))


JOBS = {
    1: lambda: _on_spark(1, lambda spark: tables.table_loading(spark, "tpch")),
    2: lambda: _on_spark(2, lambda spark: tables.table_loading(spark, "tpcds")),
    3: lambda: _from_suite(3),
    4: lambda: _from_suite(4),
    5: lambda: _from_suite(5),
    6: lambda: _from_suite(6),
    7: lambda: _on_spark(7, tables.table_07),
    8: lambda: _suite(8, "tpch", (3, 4)),
    11: lambda: _suite(11, "tpcds", (5, 6)),
    14: _table14,
    15: lambda: _on_spark(15, tables.table_15),
    16: lambda: _on_spark(16, lambda spark: tables.table_distributed(spark, "tpch")),
    17: lambda: _on_spark(17, lambda spark: tables.table_distributed(spark, "tpcds")),
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
