"""Spans and work counters recorded from outside the program.

The benchmark never edits ``src/repro``: a traced run replaces the
public functions and methods listed in :data:`TARGETS` with timing
wrappers, runs the workload, and restores the originals.  Each wrapped
call records one span — name, layer, start, end, parent span — in
memory, and bumps a call counter under the same name.  A few wrappers
also read the call's arguments or result to count bytes, hits and
phase times (see the ``_after_*`` hooks).  Spans are written out only
when the run ends.

The wrappers assume one thread per process, which holds for every
workload: sweeps run with one worker per process, and the coordinator
and the remote worker are single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: The layers, in report order; each is a module of ``repro.core`` or
#: ``repro.sbml``.
LAYERS = (
    "sbml",
    "artifact_store",
    "compose",
    "match_all",
    "session",
    "coordinator",
    "shards",
    "transport",
    "signature",
    "corpus_index",
)


class Tracer:
    """In-memory span log plus counters for one process."""

    def __init__(self, process: str = "main"):
        self.process = process
        #: ``(span id, parent id or -1, name, layer, start, end)``
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        #: Exact integer counters — calls per span name, plus bytes, hits
        #: and misses; the determinism check compares these.
        self.counts: Counter = Counter()
        #: Seconds read off call results (merge phase timings).
        self.seconds: Counter = Counter()
        self._stack: List[int] = []
        self._next_id = 0
        self._restore: List[Tuple[object, str, object]] = []
        #: Wrappers call straight through while this is off, so the
        #: benchmark's own checks leave no spans.
        self.enabled = True

    # -- recording -----------------------------------------------------

    def wrap(self, func: Callable, name: str, layer: str, after=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, name, layer, start, end))
                tracer.counts[name] += 1
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Replace every target in :data:`TARGETS` with its wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, owner_name, attr, name, layer, after in TARGETS:
            module = sys.modules.get(module_name) or __import__(
                module_name, fromlist=["_"]
            )
            if owner_name is None:
                self._patch_function(module, attr, name, layer, after)
            else:
                self._patch_method(
                    getattr(module, owner_name), attr, name, layer, after
                )
        self._patch_pickle()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch_method(self, owner, attr, name, layer, after) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(raw.__func__, name, layer, after))
        else:
            replacement = self.wrap(raw, name, layer, after)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, attr, name, layer, after) -> None:
        """Rebind a module-level function in every ``repro`` module
        that imported it by name, so calls through any import path
        reach the one wrapper."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, layer, after)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                loaded_name == "repro" or loaded_name.startswith("repro.")
            ):
                continue
            if loaded.__dict__.get(attr) is original:
                self._restore.append((loaded, attr, original))
                setattr(loaded, attr, wrapper)

    def _patch_pickle(self) -> None:
        """Count the bytes of every frame the socket transport pickles.

        ``FramedConnection.send`` pickles the message itself, so its
        size is only visible at the ``pickle.dumps`` it calls; the
        transport module gets a stand-in ``pickle`` that counts and
        forwards."""
        from repro.core import transport

        tracer = self
        real = transport.pickle

        class _CountingPickle:
            HIGHEST_PROTOCOL = real.HIGHEST_PROTOCOL
            loads = staticmethod(real.loads)

            @staticmethod
            def dumps(obj, protocol=None):
                payload = real.dumps(obj, protocol=protocol)
                if tracer.enabled:
                    # 4-byte length header + payload: the frame on the wire.
                    tracer.counts["transport.send_bytes"] += len(payload) + 4
                return payload

        self._restore.append((transport, "pickle", real))
        transport.pickle = _CountingPickle

    # -- output --------------------------------------------------------

    def dump(self) -> Dict[str, object]:
        return {
            "process": self.process,
            "spans": self.spans,
            "counts": dict(self.counts),
            "seconds": dict(self.seconds),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.dump()))


# -- hooks reading arguments or results ---------------------------------


def _after_compose_step(tracer: Tracer, args, result) -> None:
    report = result[1]
    for phase, seconds in report.timings.items():
        tracer.seconds[f"compose.phase.{phase}"] += seconds


def _after_store_get(tracer: Tracer, args, result) -> None:
    tracer.counts["artifact_store.hit" if result is not None else "artifact_store.miss"] += 1


def _after_fetch(tracer: Tracer, args, result) -> None:
    tracer.counts["artifact_store.fetch_bytes"] += len(result or b"")


def _after_query(tracer: Tracer, args, result) -> None:
    tracer.counts["corpus_index.hits"] += len(result)
    tracer.counts["corpus_index.pruned"] += sum(
        1 for hit in result if not hit.blocked
    )


#: ``(module, class or None, attribute, span name, layer, hook)``.
TARGETS = (
    ("repro.sbml.reader", None, "read_sbml", "sbml.parse", "sbml", None),
    (
        "repro.core.artifact_store", None, "compute_artifacts",
        "artifact_store.compute", "artifact_store", None,
    ),
    (
        "repro.core.artifact_store", None, "model_digest",
        "artifact_store.digest", "artifact_store", None,
    ),
    (
        "repro.core.artifact_store", "ArtifactStore", "get",
        "artifact_store.get", "artifact_store", _after_store_get,
    ),
    (
        "repro.core.artifact_store", "ArtifactStore", "put",
        "artifact_store.put", "artifact_store", None,
    ),
    (
        "repro.core.artifact_store", "ArtifactStore", "put_blob",
        "artifact_store.put_blob", "artifact_store", None,
    ),
    (
        "repro.core.artifact_store", "ArtifactStore", "get_blob",
        "artifact_store.get_blob", "artifact_store", None,
    ),
    (
        "repro.core.artifact_store", "CorpusManifest", "build",
        "artifact_store.manifest_build", "artifact_store", None,
    ),
    (
        "repro.core.coordinator", "_FetchChannel", "fetch",
        "artifact_store.fetch", "artifact_store", _after_fetch,
    ),
    (
        "repro.core.compose", "Composer", "compose_step",
        "compose.step", "compose", _after_compose_step,
    ),
    (
        "repro.core.compose", "ModelIndexSet", "build",
        "compose.index_build", "compose", None,
    ),
    ("repro.core.match_all", None, "match_all", "match_all.sweep", "match_all", None),
    ("repro.core.match_all", None, "match_query", "match_all.query", "match_all", None),
    (
        "repro.core.session", "ComposeSession", "compose_all",
        "session.compose_all", "session", None,
    ),
    (
        "repro.core.coordinator", "SweepCoordinator", "run",
        "coordinator.run", "coordinator", None,
    ),
    *(
        (
            "repro.core.shards", "SweepCheckpoint", method,
            "shards.journal", "shards", None,
        )
        for method in (
            "begin",
            "acquire_lease",
            "release_lease",
            "reclaim_expired_leases",
            "mark_complete",
        )
    ),
    (
        "repro.core.transport", "FramedConnection", "send",
        "transport.send", "transport", None,
    ),
    (
        "repro.core.transport", "FramedConnection", "recv",
        "transport.recv", "transport", None,
    ),
    (
        "repro.core.signature", "ModelSignature", "build",
        "signature.build", "signature", None,
    ),
    (
        "repro.core.signature", "ModelSignature", "congruence",
        "signature.congruence", "signature", None,
    ),
    (
        "repro.core.corpus_index", "CorpusIndex", "load",
        "corpus_index.open", "corpus_index", None,
    ),
    (
        "repro.core.corpus_index", "CorpusIndex", "query",
        "corpus_index.query", "corpus_index", _after_query,
    ),
    (
        "repro.core.corpus_index", "CorpusIndex", "rank",
        "corpus_index.rank", "corpus_index", None,
    ),
    (
        "repro.core.corpus_index", "CorpusIndex", "add",
        "corpus_index.add", "corpus_index", None,
    ),
    (
        "repro.core.corpus_index", "CorpusIndex", "save",
        "corpus_index.save", "corpus_index", None,
    ),
)


# -- aggregation ---------------------------------------------------------


def self_seconds(spans) -> Dict[str, float]:
    """Each layer's self time: its spans' durations minus the part
    their direct child spans cover."""
    child_total: Dict[int, float] = {}
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            child_total[parent] = child_total.get(parent, 0.0) + (end - start)
    totals = {layer: 0.0 for layer in LAYERS}
    for span_id, _, _, layer, start, end in spans:
        totals[layer] += (end - start) - child_total.get(span_id, 0.0)
    return totals


def load_dump(path: Path) -> Optional[Dict[str, object]]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None
