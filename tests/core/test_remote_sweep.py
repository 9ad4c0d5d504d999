"""Remote socket workers under the sweep coordinator.

Real processes, real TCP (loopback), deterministic chaos: these tests
spawn ``sbmlcompose worker`` subprocesses against a listening
coordinator and pin the promises the remote boundary makes — a worker
with an *empty* local store completes shards through digest-fetch
alone, a remote death mid-shard is stolen and retried exactly like a
local worker death, and a chaos-dropped accept kills only the dropped
worker.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import chaos
from repro.core.artifact_store import corpus_fingerprint
from repro.core.coordinator import CoordinatorConfig, SweepCoordinator
from repro.core.match_all import match_all
from repro.corpus.curated import (
    drug_inhibition,
    glycolysis_lower,
    glycolysis_upper,
    mapk_cascade,
)

SHARDS = 3
SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def corpus():
    return [
        glycolysis_upper(),
        glycolysis_lower(),
        mapk_cascade(),
        drug_inhibition(),
    ]


@pytest.fixture(scope="module")
def fingerprint(corpus):
    return corpus_fingerprint(corpus, extra=("shards", SHARDS))


@pytest.fixture(scope="module")
def reference_keys(corpus):
    matrix = match_all(corpus)
    return {(o.i, o.j): o.key() for o in matrix.outcomes}


def _coordinator(corpus, fingerprint, out_dir, **kwargs):
    config = dict(
        workers=1,
        worker_timeout=15.0,
        poll_interval=0.05,
        backoff_base=0.05,
        backoff_cap=0.2,
    )
    for key in list(kwargs):
        if key in config:
            config[key] = kwargs.pop(key)
    return SweepCoordinator(
        corpus,
        None,
        shards=SHARDS,
        out_dir=out_dir,
        fingerprint=fingerprint,
        config=CoordinatorConfig(**config),
        progress=False,
        listen=("127.0.0.1", 0),
        **kwargs,
    )


def _spawn_worker(port, store=None, **popen_kwargs):
    """One ``sbmlcompose worker`` subprocess dialed at the
    coordinator.  Inherits the environment, so a spec armed with
    ``chaos.active`` (which publishes ``REPRO_CHAOS``) arms the remote
    worker identically."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "worker",
        "--connect",
        f"127.0.0.1:{port}",
    ]
    if store is not None:
        argv += ["--store", str(store)]
    return subprocess.Popen(argv, env=env, **popen_kwargs)


def _computed_keys(report):
    return {
        (o.i, o.j): o.key()
        for matrix in report.matrices
        for o in matrix.outcomes
    }


def _reap(procs, timeout=60):
    codes = []
    for proc in procs:
        try:
            codes.append(proc.wait(timeout=timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            codes.append(proc.wait())
    return codes


class TestDigestFetch:
    def test_empty_store_worker_completes_sweep(
        self, corpus, fingerprint, reference_keys, tmp_path
    ):
        # Listen-only coordinator: every pair is computed by a remote
        # worker whose local store starts EMPTY — the corpus crosses
        # the wire exclusively as digest-fetch replies.
        coordinator = _coordinator(
            corpus, fingerprint, tmp_path / "sweep", local_workers=0
        )
        _, port = coordinator.listen_address
        store = tmp_path / "worker-store"
        proc = _spawn_worker(port, store=store)
        try:
            report = coordinator.run()
        finally:
            (code,) = _reap([proc])
        assert report.exit_code == 0
        assert code == 0
        assert _computed_keys(report) == reference_keys
        # The fetch path really ran: every corpus model is now cached
        # in the worker's own store.
        assert len(list(store.rglob("*.pkl"))) >= len(corpus)

    def test_listen_only_without_listen_rejected(self, corpus, fingerprint, tmp_path):
        with pytest.raises(ValueError):
            SweepCoordinator(
                corpus,
                None,
                shards=SHARDS,
                out_dir=tmp_path / "sweep",
                fingerprint=fingerprint,
                config=CoordinatorConfig(workers=1),
                local_workers=0,
            )


class TestRemoteDeath:
    def test_remote_death_mid_shard_is_stolen_like_local(
        self, corpus, fingerprint, reference_keys, tmp_path
    ):
        # The exact fault of the local steal test
        # (test_coordinator.py::test_killed_worker_shard_is_stolen_and_completes),
        # now fired inside a remote worker: SIGKILL on pair (0, 1),
        # once.  Two remote workers, so whichever one dies, the other
        # steals the shard and the sweep completes with identical rows.
        out = tmp_path / "sweep"
        out.mkdir()
        spec = chaos.ChaosSpec(
            out,
            faults=[
                chaos.Fault(
                    site="pair-start",
                    action="kill",
                    match={"i": 0, "j": 1},
                    times=1,
                    key="kill-once",
                )
            ],
        )
        coordinator = _coordinator(corpus, fingerprint, out, local_workers=0)
        _, port = coordinator.listen_address
        with chaos.active(spec):
            procs = [_spawn_worker(port), _spawn_worker(port)]
            try:
                report = coordinator.run()
            finally:
                codes = _reap(procs)
        assert report.exit_code == 0
        assert report.steals == 1
        assert report.retries >= 1
        assert not report.quarantined
        assert _computed_keys(report) == reference_keys
        # One worker died by SIGKILL; the survivor stopped cleanly.
        assert sorted(codes) == [-9, 0]


class TestHandshakeRejection:
    def test_net_accept_drop_kills_only_the_dropped_worker(
        self, corpus, fingerprint, reference_keys, tmp_path
    ):
        # A chaos-dropped accept: the victim's handshake dies cleanly
        # (exit 2, with a reason on stderr), the other worker is
        # untouched and finishes the sweep.
        out = tmp_path / "sweep"
        out.mkdir()
        spec = chaos.ChaosSpec(
            out,
            faults=[
                chaos.Fault(
                    site="net-accept",
                    action="drop",
                    times=1,
                    key="drop-one",
                )
            ],
        )
        coordinator = _coordinator(corpus, fingerprint, out, local_workers=0)
        _, port = coordinator.listen_address
        with chaos.active(spec):
            procs = [
                _spawn_worker(port, stderr=subprocess.PIPE),
                _spawn_worker(port, stderr=subprocess.PIPE),
            ]
            try:
                report = coordinator.run()
            finally:
                codes = _reap(procs)
        stderrs = [proc.stderr.read().decode() for proc in procs]
        for proc in procs:
            proc.stderr.close()
        assert report.exit_code == 0
        assert _computed_keys(report) == reference_keys
        assert sorted(codes) == [0, 2]
        dropped = stderrs[codes.index(2)]
        assert "handshake failed" in dropped
