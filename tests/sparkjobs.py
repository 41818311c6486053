"""Count the Spark jobs an action launches, with the Spark UI off."""
from __future__ import annotations

import uuid


def spark_jobs(spark, fn) -> int:
    """Spark jobs launched by ``fn()``, counted under a fresh job group once
    the listener bus has delivered every job event."""
    sc = spark.sparkContext
    group = f"tests/{uuid.uuid4().hex}"
    sc.setJobGroup(group, "counted")
    try:
        fn()
    finally:
        for key in ("spark.jobGroup.id", "spark.job.description",
                    "spark.job.interruptOnCancel"):
            sc.setLocalProperty(key, None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))
