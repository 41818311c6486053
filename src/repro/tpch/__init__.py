"""TPC-H-lite query workload: TAG-join spec + identical SQL per query."""
from .queries import QUERIES, Query  # noqa: F401
