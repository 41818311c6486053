"""Shared bootstrap for the table jobs (`python jobs/run.py …`, or
spark-submit): driver memory, master and the `src/` import path.
"""
import os
import sys

os.environ.setdefault("SPARK_DRIVER_MEM", "24g")
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.showConsoleProgress=false "
    "pyspark-shell",
)
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
