"""The fault-tolerant sweep coordinator.

Every scenario here is driven deterministically by the chaos harness
(:mod:`repro.core.chaos`) — worker deaths, poison pairs and stalls
happen on exact pairs with exact budgets, so these tests replay
identically on every run.
"""

import json

import pytest

from repro.core import chaos
from repro.core.artifact_store import corpus_fingerprint
from repro.core.coordinator import (
    EXIT_QUARANTINED,
    CoordinatorConfig,
    CoordinatorError,
    Quarantine,
    SweepCoordinator,
)
from repro.core.match_all import MatchMatrix, match_all, read_outcomes_csv
from repro.core.shards import SweepCheckpoint, SweepStateError
from repro.corpus.curated import (
    drug_inhibition,
    glycolysis_lower,
    glycolysis_upper,
    mapk_cascade,
)

SHARDS = 3


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
    """Run-invariant rows of the plain unsharded sweep."""
    matrix = match_all(corpus)
    return {(o.i, o.j): o.key() for o in matrix.outcomes}


def _coordinator(corpus, fingerprint, out_dir, **overrides):
    defaults = dict(
        workers=2,
        worker_timeout=15.0,
        poll_interval=0.05,
        backoff_base=0.05,
        backoff_cap=0.2,
    )
    defaults.update(overrides)
    return SweepCoordinator(
        corpus,
        None,
        shards=SHARDS,
        out_dir=out_dir,
        fingerprint=fingerprint,
        config=CoordinatorConfig(**defaults),
        progress=False,
    )


def _computed_keys(report):
    return {
        (o.i, o.j): o.key()
        for matrix in report.matrices
        for o in matrix.outcomes
    }


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoordinatorConfig(workers=0)
        with pytest.raises(ValueError):
            CoordinatorConfig(worker_timeout=0)
        with pytest.raises(ValueError):
            CoordinatorConfig(max_retries=-1)
        with pytest.raises(ValueError):
            CoordinatorConfig(poison_threshold=0)

    def test_derived_knobs(self):
        config = CoordinatorConfig(worker_timeout=8.0)
        assert config.effective_heartbeat == pytest.approx(2.0)
        assert config.effective_lease_ttl == pytest.approx(32.0)
        explicit = CoordinatorConfig(
            heartbeat_interval=0.5, lease_ttl=10.0
        )
        assert explicit.effective_heartbeat == 0.5
        assert explicit.effective_lease_ttl == 10.0


class TestHappyPath:
    def test_matches_unsupervised_sweep(
        self, corpus, fingerprint, reference_keys, tmp_path
    ):
        report = _coordinator(corpus, fingerprint, tmp_path / "sweep").run()
        assert report.exit_code == 0
        assert report.retries == 0 and report.steals == 0
        assert _computed_keys(report) == reference_keys
        # Every shard is journaled and its CSV exists.
        checkpoint = SweepCheckpoint.open(tmp_path / "sweep")
        assert checkpoint.missing_shards() == []
        assert checkpoint.leases == {}

    def test_resume_skips_everything(
        self, corpus, fingerprint, tmp_path
    ):
        out = tmp_path / "sweep"
        _coordinator(corpus, fingerprint, out).run()
        coordinator = _coordinator(corpus, fingerprint, out)
        coordinator.resume = True
        report = coordinator.run()
        assert report.matrices == []  # nothing recomputed
        assert report.exit_code == 0


class TestWorkerDeathAndStealing:
    def test_killed_worker_shard_is_stolen_and_completes(
        self, corpus, fingerprint, reference_keys, tmp_path
    ):
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
        with chaos.active(spec):
            report = _coordinator(corpus, fingerprint, out).run()
        assert report.exit_code == 0
        assert report.steals == 1
        assert report.retries >= 1
        # One death is one strike — not enough for quarantine — and
        # the retry recomputed the pair: full coverage, identical rows.
        assert not report.quarantined
        assert _computed_keys(report) == reference_keys

    def test_strike_attributed_to_running_pair(
        self, corpus, fingerprint, tmp_path
    ):
        # Kill the worker twice on the same pair: attribution turns
        # two deaths into quarantine at the default threshold.
        out = tmp_path / "sweep"
        out.mkdir()
        spec = chaos.ChaosSpec(
            out,
            faults=[
                chaos.Fault(
                    site="pair-start",
                    action="kill",
                    match={"i": 2, "j": 3},
                    times=2,
                    key="kill-twice",
                )
            ],
        )
        with chaos.active(spec):
            report = _coordinator(corpus, fingerprint, out).run()
        assert report.exit_code == EXIT_QUARANTINED
        assert [(e["i"], e["j"]) for e in report.quarantined] == [(2, 3)]
        entry = report.quarantined[0]
        assert "died" in entry["error"]
        assert entry["strikes"] == 2


class TestPoisonQuarantine:
    def test_poison_pair_quarantined_and_rows_absent(
        self, corpus, fingerprint, reference_keys, tmp_path
    ):
        out = tmp_path / "sweep"
        out.mkdir()
        spec = chaos.ChaosSpec(
            out,
            faults=[
                chaos.Fault(
                    site="pair-start",
                    action="raise",
                    match={"i": 1, "j": 2},
                    times=None,
                    key="poison",
                )
            ],
        )
        with chaos.active(spec):
            report = _coordinator(corpus, fingerprint, out).run()
        assert report.exit_code == EXIT_QUARANTINED
        expected = dict(reference_keys)
        del expected[(1, 2)]
        assert _computed_keys(report) == expected
        # The captured traceback is real: it names the chaos fault.
        payload = json.loads((out / "quarantine.json").read_text())
        (entry,) = payload["pairs"]
        assert entry["i"] == 1 and entry["j"] == 2
        assert "ChaosError" in entry["error"]
        assert "Traceback" in entry["error"]
        # Quarantined rows are absent from the shard CSVs.
        checkpoint = SweepCheckpoint.open(out)
        for shard_id, info in checkpoint.completed.items():
            rows = read_outcomes_csv(out / str(info["file"]))
            assert (1, 2) not in {(o.i, o.j) for o in rows}
        # The per-shard matrix reports the quarantine in its summary.
        hit = [m for m in report.matrices if m.quarantined]
        assert len(hit) == 1 and "QUARANTINED" in hit[0].summary()

    def test_quarantine_survives_resume(
        self, corpus, fingerprint, tmp_path
    ):
        out = tmp_path / "sweep"
        out.mkdir()
        spec = chaos.ChaosSpec(
            out,
            faults=[
                chaos.Fault(
                    site="pair-start",
                    action="raise",
                    match={"i": 1, "j": 2},
                    times=None,
                    key="poison",
                )
            ],
        )
        with chaos.active(spec):
            first = _coordinator(corpus, fingerprint, out).run()
        assert first.exit_code == EXIT_QUARANTINED
        # A later resume (chaos disarmed: the bug is "fixed") still
        # reports the standing quarantine and recomputes nothing.
        coordinator = _coordinator(corpus, fingerprint, out)
        coordinator.resume = True
        second = coordinator.run()
        assert second.exit_code == EXIT_QUARANTINED
        assert [(e["i"], e["j"]) for e in second.quarantined] == [(1, 2)]
        assert second.matrices == []


class TestRetryBudget:
    def test_exhausted_budget_raises(self, corpus, fingerprint, tmp_path):
        # A pair that always errors but a threshold too high to ever
        # quarantine: the shard burns its whole budget and the sweep
        # aborts instead of looping forever.
        out = tmp_path / "sweep"
        out.mkdir()
        spec = chaos.ChaosSpec(
            out,
            faults=[
                chaos.Fault(
                    site="pair-start",
                    action="raise",
                    match={"i": 1, "j": 2},
                    times=None,
                    key="poison",
                )
            ],
        )
        with chaos.active(spec):
            coordinator = _coordinator(
                corpus,
                fingerprint,
                out,
                max_retries=1,
                poison_threshold=100,
            )
            with pytest.raises(CoordinatorError) as excinfo:
                coordinator.run()
        assert "max_retries" in str(excinfo.value)


class TestBackoff:
    def test_deterministic_jitter(self, corpus, fingerprint, tmp_path):
        one = _coordinator(corpus, fingerprint, tmp_path / "a")
        two = _coordinator(corpus, fingerprint, tmp_path / "b")
        delays_one = [one._backoff(1, n) for n in range(1, 6)]
        delays_two = [two._backoff(1, n) for n in range(1, 6)]
        assert delays_one == delays_two
        # Exponential growth up to the cap (jitter ≤ 25 % here).
        assert delays_one[0] < delays_one[1] < delays_one[2]
        cap = one.config.backoff_cap * (1 + one.config.backoff_jitter)
        assert all(delay <= cap for delay in delays_one)


class TestQuarantineSidecar:
    def test_load_missing_is_empty(self, tmp_path):
        quarantine = Quarantine.load(tmp_path)
        assert len(quarantine) == 0

    def test_add_save_load_round_trip(self, tmp_path):
        quarantine = Quarantine(tmp_path)
        quarantine.add(1, 3, left="a", right="b", strikes=2, error="boom")
        loaded = Quarantine.load(tmp_path)
        assert (1, 3) in loaded
        assert loaded.entries[(1, 3)]["error"] == "boom"
        assert loaded.pairs() == {(1, 3)}

    def test_unreadable_sidecar_raises_cleanly(self, tmp_path):
        (tmp_path / Quarantine.FILENAME).write_text("{not json")
        with pytest.raises(SweepStateError):
            Quarantine.load(tmp_path)


class TestMonotonicLiveness:
    def test_wall_clock_jump_neither_kills_nor_revives(
        self, corpus, fingerprint, tmp_path, monkeypatch
    ):
        """Worker liveness rides the monotonic clock: stepping the
        wall clock (NTP correction, VM resume, DST misconfig) by hours
        in either direction must not change which workers look alive.
        The two clocks are patched independently to prove liveness
        never reads ``time.time``."""
        import time as _time

        from repro.core import coordinator as coord_mod

        class _Conn:
            def close(self):
                pass

        coordinator = _coordinator(corpus, fingerprint, tmp_path / "sweep")
        worker = coord_mod._WorkerHandle(
            "r1", None, _Conn(), remote=True, host="box-b"
        )
        coordinator._workers["r1"] = worker

        real_time = _time.time
        # Forward wall jump of ~3 hours: a worker heartbeating
        # normally must NOT be declared stalled and killed.
        monkeypatch.setattr(
            coord_mod.time, "time", lambda: real_time() + 10_800.0
        )
        coordinator._check_timeouts(coord_mod.time.monotonic())
        assert worker.kill_reason is None
        assert not worker.eof

        # Backward wall jump: a genuinely stale worker (no heartbeat
        # for longer than the timeout, on the monotonic clock) must
        # NOT be revived by the clock running "earlier" again.
        monkeypatch.setattr(
            coord_mod.time, "time", lambda: real_time() - 10_800.0
        )
        worker.last_seen = (
            _time.monotonic() - coordinator.config.worker_timeout - 1.0
        )
        coordinator._check_timeouts(coord_mod.time.monotonic())
        assert worker.kill_reason is not None
        assert "no heartbeat" in worker.kill_reason
        assert worker.eof  # remote reclamation = closed channel


class _RecordingConn:
    def __init__(self):
        self.sent = []

    def send(self, obj):
        self.sent.append(obj)

    def close(self):
        pass


class _StubbornProcess:
    """A worker process that ignores escalation steps until ``dies_on``
    (one of "stop", "terminate", "kill", or None for unkillable)."""

    def __init__(self, dies_on):
        self.dies_on = dies_on
        self.calls = []
        self.pid = 4242
        self._alive = True

    def is_alive(self):
        return self._alive

    def join(self, timeout=None):
        self.calls.append("join")

    def terminate(self):
        self.calls.append("terminate")
        if self.dies_on == "terminate":
            self._alive = False

    def kill(self):
        self.calls.append("kill")
        if self.dies_on == "kill":
            self._alive = False


class _IdleProcess:
    """A live worker process that never exits: its sentinel is the
    read end of a pipe nobody writes."""

    def __init__(self):
        import os

        self._read, self._write = os.pipe()
        self.sentinel = self._read

    def is_alive(self):
        return True

    def close(self):
        import os

        os.close(self._read)
        os.close(self._write)


class TestLocalHandshake:
    def test_hello_is_answered_when_readable_never_awaited(
        self, corpus, fingerprint, tmp_path
    ):
        """A local child is welcomed once its ``hello`` is readable; a
        child that has not said it yet costs the event loop one poll
        tick, not the handshake timeout."""
        import socket
        import time as _time

        from repro.core import coordinator as coord_mod
        from repro.core import transport

        coordinator = _coordinator(corpus, fingerprint, tmp_path / "sweep")
        parent, child = socket.socketpair()
        process = _IdleProcess()
        handle = coord_mod._WorkerHandle(
            "w1", process, transport.FramedConnection(parent), welcomed=False
        )
        coordinator._workers["w1"] = handle
        worker_side = transport.FramedConnection(child)
        try:
            started = _time.monotonic()
            coordinator._wait_and_drain()
            assert _time.monotonic() - started < 2.0
            assert not handle.welcomed
            worker_side.send(
                (
                    "hello",
                    {
                        "protocol": transport.PROTOCOL_VERSION,
                        "host": "box-a",
                        "pid": 1,
                        "has_store": True,
                    },
                )
            )
            coordinator._wait_and_drain()
            assert handle.welcomed
            kind, welcome = worker_side.recv()
            assert kind == "welcome" and welcome["name"] == "w1"
            assert not handle.eof
        finally:
            worker_side.close()
            handle.conn.close()
            process.close()


class TestShutdownEscalation:
    def _with_worker(self, corpus, fingerprint, tmp_path, process):
        from repro.core import coordinator as coord_mod

        coordinator = _coordinator(corpus, fingerprint, tmp_path / "sweep")
        coordinator.progress = True
        conn = _RecordingConn()
        handle = coord_mod._WorkerHandle("w1", process, conn)
        coordinator._workers["w1"] = handle
        return coordinator, conn

    def test_escalates_and_rejoins_after_kill(
        self, corpus, fingerprint, tmp_path, capsys
    ):
        # The worker shrugs off stop AND terminate; only kill lands.
        # The coordinator must re-join after the kill (a kill without
        # a final join leaves a zombie) and not cry zombie here.
        process = _StubbornProcess(dies_on="kill")
        coordinator, conn = self._with_worker(
            corpus, fingerprint, tmp_path, process
        )
        coordinator._shutdown_workers()
        assert ("stop",) in conn.sent
        assert process.calls == [
            "join", "terminate", "join", "kill", "join"
        ]
        err = capsys.readouterr().err
        assert "ignored stop; terminating" in err
        assert "survived terminate; killing" in err
        assert "UNREAPED" not in err
        assert coordinator._workers == {}

    def test_unkillable_worker_is_reported_with_pid(
        self, corpus, fingerprint, tmp_path, capsys
    ):
        process = _StubbornProcess(dies_on=None)
        coordinator, _ = self._with_worker(
            corpus, fingerprint, tmp_path, process
        )
        coordinator._shutdown_workers()
        assert process.calls == [
            "join", "terminate", "join", "kill", "join"
        ]
        err = capsys.readouterr().err
        assert "UNREAPED" in err
        assert "4242" in err

    def test_chaos_worker_ignoring_stop_is_terminated(
        self, corpus, fingerprint, reference_keys, tmp_path, capsys
    ):
        # Integration: a real worker stalls inside its stop handler
        # (the chaos "worker-stop" site).  The sweep itself finished,
        # so this must cost one escalation, not a hang or a zombie.
        out = tmp_path / "sweep"
        out.mkdir()
        spec = chaos.ChaosSpec(
            out,
            faults=[
                chaos.Fault(
                    site="worker-stop",
                    action="stall",
                    stall_seconds=30.0,
                    times=1,
                    key="ignore-stop",
                )
            ],
        )
        with chaos.active(spec):
            coordinator = _coordinator(corpus, fingerprint, out, workers=1)
            coordinator.progress = True
            report = coordinator.run()
        assert report.exit_code == 0
        assert _computed_keys(report) == reference_keys
        err = capsys.readouterr().err
        assert "ignored stop; terminating" in err
        assert coordinator._workers == {}
