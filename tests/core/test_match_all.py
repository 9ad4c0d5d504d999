"""The batched all-pairs matching engine."""

import pytest

from repro import ModelBuilder, compose_all, match_all, match_all_sharded
from repro.core.match_all import MatchMatrix
from repro.core.options import ComposeOptions


def _module_model(model_id, species, parameter, value=0.5):
    builder = ModelBuilder(model_id).compartment("cell", size=1.0)
    for name in species:
        builder = builder.species(name, 1.0)
    builder = builder.parameter(parameter, value)
    builder = builder.mass_action(
        f"r_{model_id}", [species[0]], [species[-1]], parameter
    )
    return builder.build()


@pytest.fixture
def corpus():
    return [
        _module_model("m1", ["A", "B"], "k1"),
        _module_model("m2", ["B", "C"], "k2"),
        _module_model("m3", ["C", "D"], "k3"),
        _module_model("m4", ["A", "D"], "k4"),
    ]


class TestMatchAll:
    def test_pair_enumeration_with_self(self, corpus):
        matrix = match_all(corpus)
        assert matrix.pair_count == 10  # C(4,2) + 4 self-pairs
        assert [(o.i, o.j) for o in matrix.outcomes] == [
            (i, j) for i in range(4) for j in range(i, 4)
        ]

    def test_no_self_pairs(self, corpus):
        matrix = match_all(corpus, include_self=False)
        assert matrix.pair_count == 6
        assert all(o.i != o.j for o in matrix.outcomes)

    def test_outcomes_match_session_reports(self, corpus):
        # The batched engine shares artifacts but must produce the
        # same matching outcome a standalone composition does.
        matrix = match_all(corpus)
        by_pair = {(o.i, o.j): o for o in matrix.outcomes}
        for i in range(len(corpus)):
            for j in range(i, len(corpus)):
                result = compose_all([corpus[i], corpus[j]])
                outcome = by_pair[(i, j)]
                assert outcome.united == len(result.report.duplicates)
                assert outcome.added == result.report.total_added
                assert outcome.renamed == len(result.report.renamed)
                assert outcome.conflicts == len(result.report.conflicts)

    def test_self_pair_unites_everything(self, corpus):
        matrix = match_all(corpus)
        self_pair = next(o for o in matrix.outcomes if (o.i, o.j) == (0, 0))
        assert self_pair.added == 0
        assert self_pair.united > 0

    def test_inputs_not_mutated(self, corpus):
        snapshots = [sorted(m.global_ids()) for m in corpus]
        match_all(corpus, workers=2)
        assert [sorted(m.global_ids()) for m in corpus] == snapshots

    def test_process_fanout_deterministic(self, corpus):
        # workers > 1 runs the supervised coordinator on local worker
        # processes; the rows are the in-process engine's, in order.
        serial = match_all(corpus)
        supervised = match_all(corpus, workers=2)
        assert supervised.workers == 2
        assert [o.key() for o in supervised.outcomes] == [
            o.key() for o in serial.outcomes
        ]

    def test_conflict_counted(self):
        a = _module_model("m1", ["A", "B"], "shared", value=0.5)
        b = _module_model("m2", ["A", "B"], "shared", value=0.5)
        b.species[0].initial_amount = 777.0
        matrix = match_all([a, b], include_self=False)
        assert matrix.outcomes[0].conflicts >= 1

    def test_summary_and_rates(self, corpus):
        matrix = match_all(corpus)
        assert matrix.pairs_per_second > 0
        assert "pairs/s" in matrix.summary()
        assert len(MatchMatrix.csv_header()) == len(
            matrix.outcomes[0].row()
        )

    def test_options_respected(self, corpus):
        # Structural semantics never unites by name, so cross-model
        # pairs unite nothing (no shared ids are checked structurally
        # either — every component is unique).
        matrix = match_all(
            corpus, ComposeOptions.structural(), include_self=False
        )
        assert all(o.united == 0 for o in matrix.outcomes)

    def test_invalid_arguments(self, corpus, tmp_path):
        with pytest.raises(ValueError):
            match_all(corpus, workers=0)
        with pytest.raises(ValueError):
            match_all(corpus, workers=-1)
        # The parallel sweep runs over a temporary out-dir: a store or
        # a prescreen needs the in-process engine (or sweep
        # --supervise, which the error names).
        with pytest.raises(ValueError, match="sweep --supervise"):
            match_all(corpus, workers=2, store=tmp_path / "store")
        with pytest.raises(ValueError, match="sweep --supervise"):
            match_all(corpus, workers=2, prescreen=True)

    def test_store_tier_transparent(self, corpus, tmp_path):
        from repro.core.artifact_store import ArtifactStore

        plain = match_all(corpus)
        stored = match_all(corpus, store=tmp_path / "artifacts")
        assert [o.key() for o in plain.outcomes] == [
            o.key() for o in stored.outcomes
        ]
        # Every model spilled exactly once, shared across its pairs.
        assert len(ArtifactStore(tmp_path / "artifacts")) == len(corpus)


class TestDigestShipping:
    """The worker boundary: every coordinator worker receives a
    ``(label, digest)`` manifest in its ``welcome`` and rehydrates each
    model from the sweep's artifact store on first touch."""

    def test_manifest_payload_does_not_grow_with_corpus(self, tmp_path):
        """The acceptance number: the manifest a ``welcome`` carries
        is a few dozen bytes per entry, versus the full serialised
        corpus."""
        import pickle

        from repro.core.artifact_store import ArtifactStore, CorpusManifest

        store = ArtifactStore(tmp_path / "store")
        small = [
            _module_model(f"m{i}", ["A", "B", "C"], f"k{i}")
            for i in range(4)
        ]
        large = small + [
            _module_model(f"m{i}", ["A", "B", "C"], f"k{i}")
            for i in range(4, 16)
        ]
        manifest_small = CorpusManifest.build(
            small, [m.id for m in small], store
        )
        manifest_large = CorpusManifest.build(
            large, [m.id for m in large], store
        )
        per_entry = (
            len(pickle.dumps(manifest_large)) - len(pickle.dumps(manifest_small))
        ) / (len(large) - len(small))
        per_model = (
            len(pickle.dumps(large)) - len(pickle.dumps(small))
        ) / (len(large) - len(small))
        assert per_entry < 200  # a label + a hex digest, flat
        assert per_entry < per_model / 5

    def test_unwritable_store_fails_before_workers_start(
        self, corpus, monkeypatch
    ):
        from repro.core.artifact_store import ArtifactStore
        from repro.core.coordinator import CoordinatorError, SweepCoordinator

        def refuse(self, digest, artifacts):
            raise OSError("read-only store")

        def no_spawn(self):
            raise AssertionError("a worker started on an unusable store")

        monkeypatch.setattr(ArtifactStore, "put", refuse)
        monkeypatch.setattr(SweepCoordinator, "_spawn_worker", no_spawn)
        with pytest.raises(CoordinatorError, match="read-only store"):
            match_all(corpus, workers=2)

    def test_rehydrate_miss_is_a_repro_error(self, corpus, tmp_path):
        from repro.core.artifact_store import ArtifactStore, CorpusManifest
        from repro.core.match_all import _PairEngine
        from repro.errors import ReproError

        store = ArtifactStore(tmp_path / "store")
        manifest = CorpusManifest.build(
            corpus, [m.id for m in corpus], store
        )
        store.clear()  # eviction raced the sweep
        engine = _PairEngine(
            ComposeOptions(),
            None,
            None,
            str(tmp_path / "store"),
            manifest=manifest,
        )
        with pytest.raises(ReproError, match="cannot rehydrate"):
            engine.run_pair(0, 1)

    def test_blobless_entry_is_a_repro_error(self, corpus, tmp_path):
        from repro.core.artifact_store import (
            ArtifactStore,
            CorpusManifest,
            compute_artifacts,
            model_digest,
        )
        from repro.core.match_all import _PairEngine
        from repro.errors import ReproError

        store = ArtifactStore(tmp_path / "store")
        manifest = CorpusManifest.build(
            corpus, [m.id for m in corpus], store
        )
        # Overwrite one entry with a pre-format-5 (blob-less) payload.
        store.put(
            model_digest(corpus[0]),
            compute_artifacts(corpus[0], with_sbml=False),
        )
        engine = _PairEngine(
            ComposeOptions(),
            None,
            None,
            str(tmp_path / "store"),
            manifest=manifest,
        )
        with pytest.raises(ReproError, match="no SBML blob"):
            engine.run_pair(0, 1)


class TestSupervisedWorkers:
    def test_worker_death_is_retried(self, corpus, tmp_path):
        """A worker SIGKILLed mid-pair costs a retry, not the sweep:
        its shard is reassigned and the rows match the serial run."""
        from repro.core import chaos

        serial = match_all(corpus)
        spec = chaos.ChaosSpec(
            tmp_path,
            faults=[
                chaos.Fault(
                    site="pair-start",
                    action="kill",
                    times=1,
                    key="worker-kill",
                )
            ],
        )
        with chaos.active(spec):
            matrix = match_all(corpus, workers=2)
        assert [o.key() for o in matrix.outcomes] == [
            o.key() for o in serial.outcomes
        ]

    def test_poison_pair_is_named(self, corpus, tmp_path):
        """A pair that fails on every attempt is quarantined, and a
        matrix with a missing row is an error that names the pair."""
        from repro.core import chaos
        from repro.core.coordinator import CoordinatorError

        spec = chaos.ChaosSpec(
            tmp_path,
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
            with pytest.raises(CoordinatorError) as excinfo:
                match_all(corpus, workers=2)
        message = str(excinfo.value)
        assert "(1, 2) [m2+m3]" in message
        assert "ChaosError" in message


class TestMatchAllSharded:
    def test_invalid_shard_arguments(self, corpus):
        with pytest.raises(ValueError):
            match_all_sharded(corpus, shards=0, shard_id=0)
        with pytest.raises(ValueError):
            match_all_sharded(corpus, shards=2, shard_id=2)
        with pytest.raises(ValueError):
            match_all_sharded(corpus, shards=2, shard_id=-1)

    def test_shard_metadata_and_summary(self, corpus):
        matrix = match_all_sharded(corpus, shards=3, shard_id=1)
        assert matrix.shard_id == 1
        assert matrix.shard_count == 3
        assert "shard 1/3" in matrix.summary()

    def test_union_rejects_overlap(self, corpus):
        shard = match_all_sharded(corpus, shards=2, shard_id=0)
        with pytest.raises(ValueError):
            MatchMatrix.union([shard, shard])

    def test_union_round_trips_through_csv(self, corpus, tmp_path):
        from repro.core.match_all import (
            read_outcomes_csv,
            write_outcomes_csv,
        )

        matrix = match_all(corpus)
        full = tmp_path / "full.csv"
        write_outcomes_csv(full, matrix.outcomes)
        assert [o.key() for o in read_outcomes_csv(full)] == [
            o.key() for o in matrix.outcomes
        ]
        deterministic = tmp_path / "det.csv"
        write_outcomes_csv(deterministic, matrix.outcomes, deterministic=True)
        restored = read_outcomes_csv(deterministic)
        assert [o.key() for o in restored] == [o.key() for o in matrix.outcomes]
        assert all(o.seconds == 0.0 for o in restored)
