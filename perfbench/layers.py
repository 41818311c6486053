"""Per-layer tracing for the TAG-join benchmark, applied from outside the program.

The tracer wraps the module-level names that ``repro.core.tagjoin.run_spec``
(and ``run_reduction_only``) look up at call time, so the program itself is
not modified:

    build_plan, gensteps  -> layer "plan"
    reduce_phase          -> layer "reduction"
    node_frame            -> layer "collection"
    finalize              -> layer "tagjoin.finalize"

The benchmark routes its own calls (TAG encode/materialize, the result
``collect()``, the Spark SQL comparator) through :meth:`Tracer.call` too.

Every call runs under its own Spark job group. Jobs, stages and tasks are read
from ``statusTracker()`` right after the call returns, because the tracker
only retains ``spark.ui.retainedJobs`` jobs. The listener bus is drained first
so the counts do not depend on how far event delivery has got.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

#: tagjoin module attribute -> layer name.
HOOKS = {
    "build_plan": "plan",
    "gensteps": "plan",
    "reduce_phase": "reduction",
    "node_frame": "collection",
    "finalize": "tagjoin.finalize",
}

_GROUP_KEYS = ("spark.jobGroup.id", "spark.job.description",
               "spark.job.interruptOnCancel")


@dataclass
class Span:
    layer: str
    seconds: float
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    failed_tasks: int = 0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Records one :class:`Span` per wrapped call, grouped into passes."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.tracker = self.sc.statusTracker()
        self.notes: list[str] = []
        self.passes: dict[str, list[list[Span]]] = {}
        self._current: list[Span] | None = None
        self._n = 0
        self._saved: dict[str, object] = {}
        #: layers whose hooks are installed.
        self.layers: set[str] = set()
        #: tuple vertices per relation of the traced graph (for kept ratios).
        self.vertices: dict[str, int] = {}
        try:
            self._bus = self.sc._jsc.sc().listenerBus()
        except Exception as e:  # pragma: no cover - depends on the Spark build
            self._bus = None
            self.notes.append(f"listener bus not reachable ({e!r}); counts may lag")

    # -- passes ---------------------------------------------------------

    def begin(self, kind: str) -> None:
        """Start a new pass of ``kind``; later spans are recorded into it."""
        self._current = []
        self.passes.setdefault(kind, []).append(self._current)

    def end(self) -> None:
        self._current = None

    # -- spans ----------------------------------------------------------

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` under its own job group; returns (result, span).

        Outside a pass nothing is recorded and the span is None."""
        if self._current is None:
            return fn(*args, **kwargs), None
        sc = self.sc
        outer = [sc.getLocalProperty(k) for k in _GROUP_KEYS]
        group = f"perfbench/{layer}/{self._n}"
        self._n += 1
        sc.setJobGroup(group, layer)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - t0
            for k, v in zip(_GROUP_KEYS, outer):
                sc.setLocalProperty(k, v)
        span = Span(layer, seconds)
        self._read_jobs(group, span)
        self._current.append(span)
        return out, span

    def _read_jobs(self, group: str, span: Span) -> None:
        if self._bus is not None:
            self._bus.waitUntilEmpty()
        for job in self.tracker.getJobIdsForGroup(group):
            span.jobs += 1
            info = self.tracker.getJobInfo(job)
            for stage in info.stageIds if info else ():
                s = self.tracker.getStageInfo(stage)
                if s is None or s.numCompletedTasks + s.numFailedTasks == 0:
                    continue  # skipped (reused) stage: no work done
                span.stages += 1
                span.tasks += s.numCompletedTasks
                span.failed_tasks += s.numFailedTasks

    # -- program hooks --------------------------------------------------

    def install(self, tagjoin) -> None:
        """Wrap the tagjoin names in :data:`HOOKS`; missing ones are noted."""
        for name, layer in HOOKS.items():
            fn = getattr(tagjoin, name, None)
            if fn is None:
                self.notes.append(f"tagjoin.{name} not found: layer {layer} "
                                  "is not traced")
                continue
            self._saved[name] = fn
            self.layers.add(layer)
            setattr(tagjoin, name, self._wrap(name, layer, fn))

    def uninstall(self, tagjoin) -> None:
        for name, fn in self._saved.items():
            setattr(tagjoin, name, fn)
        self._saved.clear()

    def _wrap(self, name: str, layer: str, fn):
        def traced(*args, **kwargs):
            out, span = self.call(layer, fn, *args, **kwargs)
            if span is None:
                return out
            try:
                if name == "gensteps":
                    span.counts["labels"] = len(out)
                elif name == "reduce_phase":
                    _, nodes, steps, *rest = args
                    stats = rest[0] if rest else kwargs.get("stats")
                    # UP and DOWN passes each take one superstep per label.
                    span.counts["supersteps"] = 2 * len(steps)
                    if stats is not None and stats.reduced_sizes:
                        span.counts["kept_tids"] = sum(stats.reduced_sizes.values())
                        span.counts["input_tids"] = sum(
                            self.vertices[n.relation] for n in nodes)
            except (ValueError, TypeError, AttributeError, KeyError) as e:
                # A changed signature loses these counts, not the run.
                self.notes.append(f"tagjoin.{name}: counts not read ({e!r})")
            return out

        return traced

    # -- aggregation ----------------------------------------------------

    def pass_totals(self, kind: str) -> list[dict[str, float]]:
        """Per pass of ``kind``: summed seconds/jobs/stages/tasks per layer."""
        out = []
        for spans in self.passes.get(kind, []):
            tot: dict[str, float] = {}
            for s in spans:
                for key, v in (("s", s.seconds), ("jobs", s.jobs),
                               ("stages", s.stages), ("tasks", s.tasks),
                               ("failed_tasks", s.failed_tasks),
                               *s.counts.items()):
                    k = f"{s.layer}.{key}"
                    tot[k] = tot.get(k, 0) + v
            out.append(tot)
        return out
