"""Unit tests for the sbmlcompose CLI."""

import pytest

from repro import ModelBuilder, write_sbml_file
from repro.cli import main


@pytest.fixture
def model_files(tmp_path):
    a = (
        ModelBuilder("a")
        .compartment("cell", size=1.0)
        .species("A", 10.0)
        .species("B", 0.0)
        .parameter("k1", 0.5)
        .mass_action("r1", ["A"], ["B"], "k1")
        .build()
    )
    b = (
        ModelBuilder("b")
        .compartment("cell", size=1.0)
        .species("B", 0.0)
        .species("C", 0.0)
        .parameter("k2", 0.3)
        .mass_action("r2", ["B"], ["C"], "k2")
        .build()
    )
    path_a = tmp_path / "a.xml"
    path_b = tmp_path / "b.xml"
    write_sbml_file(a, path_a)
    write_sbml_file(b, path_b)
    return path_a, path_b


def test_merge_to_file(model_files, tmp_path, capsys):
    path_a, path_b = model_files
    out = tmp_path / "merged.xml"
    code = main(["merge", str(path_a), str(path_b), "-o", str(out)])
    assert code == 0
    assert out.exists()
    text = out.read_text()
    assert "<species" in text and 'id="C"' in text


def test_merge_writes_log(model_files, tmp_path):
    path_a, path_b = model_files
    out = tmp_path / "merged.xml"
    log = tmp_path / "merge.log"
    code = main(
        ["merge", str(path_a), str(path_b), "-o", str(out), "--log", str(log)]
    )
    assert code == 0
    assert "DUPLICATE" in log.read_text()


def test_merge_to_stdout(model_files, capsys):
    path_a, path_b = model_files
    assert main(["merge", str(path_a), str(path_b)]) == 0
    captured = capsys.readouterr()
    assert "<sbml" in captured.out
    assert "duplicate" in captured.err


def test_merge_semantics_flag(model_files, tmp_path):
    path_a, path_b = model_files
    out = tmp_path / "m.xml"
    assert main(
        ["merge", str(path_a), str(path_b), "-o", str(out),
         "--semantics", "none"]
    ) == 0
    # No matching: B from the second model is renamed, so 4 species.
    assert out.read_text().count("<species ") == 4


def test_diff_identical(model_files, capsys):
    path_a, _ = model_files
    assert main(["diff", str(path_a), str(path_a)]) == 0
    assert "equivalent" in capsys.readouterr().out


@pytest.fixture
def three_model_files(model_files, tmp_path):
    path_a, path_b = model_files
    c = (
        ModelBuilder("c")
        .compartment("cell", size=1.0)
        .species("C", 0.0)
        .species("D", 0.0)
        .parameter("k3", 0.1)
        .mass_action("r3", ["C"], ["D"], "k3")
        .build()
    )
    path_c = tmp_path / "c.xml"
    write_sbml_file(c, path_c)
    return path_a, path_b, path_c


def test_merge_three_models_with_tree_plan(three_model_files, tmp_path, capsys):
    path_a, path_b, path_c = three_model_files
    out = tmp_path / "merged3.xml"
    log = tmp_path / "merge3.log"
    code = main(
        ["merge", str(path_a), str(path_b), str(path_c),
         "-o", str(out), "--plan", "tree", "--log", str(log)]
    )
    assert code == 0
    text = out.read_text()
    for species_id in ("A", "B", "C", "D"):
        assert f'id="{species_id}"' in text
    # Per-step provenance is logged: step summaries on stderr, STEP +
    # PROVENANCE records in the log file.
    err = capsys.readouterr().err
    assert "step 1:" in err and "step 2:" in err
    log_text = log.read_text()
    assert "STEP 1:" in log_text
    assert "PROVENANCE" in log_text
    assert "PROVENANCE D <- c:D" in log_text


def test_sweep_to_terminal(three_model_files, capsys):
    path_a, path_b, path_c = three_model_files
    code = main(["sweep", str(path_a), str(path_b), str(path_c)])
    assert code == 0
    captured = capsys.readouterr()
    assert "a+b" in captured.out
    assert "pairs/s" in captured.err
    # 3 models with self-pairs -> 6 rows (+ header).
    assert len(captured.out.strip().splitlines()) == 7


def test_sweep_to_csv_no_self(three_model_files, tmp_path, capsys):
    path_a, path_b, path_c = three_model_files
    out = tmp_path / "pairs.csv"
    code = main(
        ["sweep", str(path_a), str(path_b), str(path_c),
         "--no-self", "--workers", "2", "-o", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("i,j,left,right,combined_size")
    assert len(lines) == 4  # header + C(3,2) pairs
    assert "3 pairs" in capsys.readouterr().err


def test_sweep_workers_byte_identical(three_model_files, tmp_path, capsys):
    """``sweep --workers 2`` runs the supervised coordinator over a
    temporary out-dir; its deterministic CSV is the in-process one."""
    paths = [str(path) for path in three_model_files]
    serial = tmp_path / "serial.csv"
    supervised = tmp_path / "supervised.csv"
    assert main(["sweep", *paths, "--deterministic", "-o", str(serial)]) == 0
    assert main(
        ["sweep", *paths, "--workers", "2", "--deterministic",
         "-o", str(supervised)]
    ) == 0
    assert supervised.read_bytes() == serial.read_bytes()
    assert "workers=2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [[], ["--supervise", "--out-dir", "OUT"]],
    ids=["unsharded", "supervised"],
)
def test_sweep_negative_workers_rejected(
    model_files, tmp_path, capsys, extra
):
    paths = [str(path) for path in model_files]
    extra = [str(tmp_path / "d") if arg == "OUT" else arg for arg in extra]
    assert main(["sweep", *paths, *extra, "--workers", "-1"]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_sweep_sharded_workers_need_supervise(model_files, tmp_path, capsys):
    paths = [str(path) for path in model_files]
    out_dir = tmp_path / "d"
    assert main(
        ["sweep", *paths, "--shards", "2", "--workers", "2",
         "--out-dir", str(out_dir)]
    ) == 2
    assert "add --supervise" in capsys.readouterr().err


def test_sweep_listen_port_out_of_range(model_files, tmp_path, capsys):
    paths = [str(path) for path in model_files]
    assert main(
        ["sweep", *paths, "--supervise", "--out-dir", str(tmp_path / "d"),
         "--listen", ":99999"]
    ) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "out of range" in err[0]


def test_sweep_single_model_rejected(model_files, capsys):
    path_a, _ = model_files
    code = main(["sweep", str(path_a)])
    assert code == 2
    assert "at least two" in capsys.readouterr().err


def test_sweep_fresh_indexes_byte_identical(three_model_files, tmp_path, capsys):
    """--fresh-indexes is an ablation knob, never a semantic one: the
    deterministic CSV must match the prebuilt-index default byte for
    byte (the conformance matrix's seventh path, on the CLI)."""
    path_a, path_b, path_c = three_model_files
    prebuilt = tmp_path / "prebuilt.csv"
    fresh = tmp_path / "fresh.csv"
    assert main(
        ["sweep", str(path_a), str(path_b), str(path_c),
         "--deterministic", "-o", str(prebuilt)]
    ) == 0
    assert main(
        ["sweep", str(path_a), str(path_b), str(path_c),
         "--deterministic", "--fresh-indexes", "-o", str(fresh)]
    ) == 0
    capsys.readouterr()
    assert prebuilt.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("plan", ["fold", "tree", "greedy"])
def test_merge_plans_agree(three_model_files, tmp_path, plan):
    path_a, path_b, path_c = three_model_files
    out = tmp_path / f"merged_{plan}.xml"
    code = main(
        ["merge", str(path_a), str(path_b), str(path_c),
         "-o", str(out), "--plan", plan]
    )
    assert code == 0
    assert out.read_text().count("<species ") == 4


def test_merge_single_model_rejected(model_files, capsys):
    path_a, _ = model_files
    assert main(["merge", str(path_a)]) == 2
    assert "at least two" in capsys.readouterr().err


def test_diff_different(model_files, capsys):
    path_a, path_b = model_files
    assert main(["diff", str(path_a), str(path_b)]) == 1
    out = capsys.readouterr().out
    assert "MISSING" in out or "EXTRA" in out


def test_validate_ok(model_files, capsys):
    path_a, _ = model_files
    assert main(["validate", str(path_a)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_bad_model(tmp_path, capsys):
    from repro.sbml import Model, Species

    model = Model(id="bad")
    model.add_species(Species(id="X", compartment="ghost"))
    path = tmp_path / "bad.xml"
    write_sbml_file(model, path)
    assert main(["validate", str(path)]) == 1


def test_simulate_to_csv(model_files, tmp_path):
    path_a, _ = model_files
    out = tmp_path / "trace.csv"
    code = main(
        ["simulate", str(path_a), "--t-end", "2", "--steps", "50",
         "-o", str(out)]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("time,")


def test_simulate_to_terminal(model_files, capsys):
    path_a, _ = model_files
    assert main(["simulate", str(path_a), "--t-end", "1"]) == 0
    out = capsys.readouterr().out
    assert "final:" in out


def test_split(tmp_path, monkeypatch, capsys):
    model = (
        ModelBuilder("two")
        .compartment("cell", size=1.0)
        .species("A", 1.0).species("B", 0.0)
        .species("X", 1.0).species("Y", 0.0)
        .parameter("k1", 1.0).parameter("k2", 1.0)
        .mass_action("ab", ["A"], ["B"], "k1")
        .mass_action("xy", ["X"], ["Y"], "k2")
        .build()
    )
    path = tmp_path / "two.xml"
    write_sbml_file(model, path)
    monkeypatch.chdir(tmp_path)
    assert main(["split", str(path), "--out-prefix", "piece"]) == 0
    assert (tmp_path / "piece0.xml").exists()
    assert (tmp_path / "piece1.xml").exists()


def test_missing_file_error(capsys):
    assert main(["validate", "/nonexistent/model.xml"]) == 2
    assert "error" in capsys.readouterr().err


def test_strict_merge_conflict(tmp_path):
    a = (
        ModelBuilder("a").compartment("cell", size=1.0)
        .species("X", 1.0).build()
    )
    b = (
        ModelBuilder("b").compartment("cell", size=1.0)
        .species("X", 2.0).build()
    )
    pa, pb = tmp_path / "a.xml", tmp_path / "b.xml"
    write_sbml_file(a, pa)
    write_sbml_file(b, pb)
    assert main(["merge", str(pa), str(pb), "--strict"]) == 2


def test_sweep_status_progression(three_model_files, tmp_path, capsys):
    """sweep-status reads the journal only: partial sweep → exit 1
    with pending shards listed, complete sweep → exit 0."""
    path_a, path_b, path_c = three_model_files
    out_dir = tmp_path / "sweepdir"
    assert main([
        "sweep", str(path_a), str(path_b), str(path_c),
        "--shards", "2", "--shard-id", "0", "--out-dir", str(out_dir),
    ]) == 0
    capsys.readouterr()

    assert main(["sweep-status", "--out-dir", str(out_dir)]) == 1
    out = capsys.readouterr().out
    assert "1/2 shard(s) complete" in out
    assert "shard 0: complete" in out
    assert "shard 1: pending" in out

    assert main([
        "sweep", str(path_a), str(path_b), str(path_c),
        "--shards", "2", "--shard-id", "1", "--out-dir", str(out_dir),
    ]) == 0
    capsys.readouterr()

    assert main(["sweep-status", "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "2/2 shard(s) complete" in out
    assert "pending" not in out


def test_sweep_status_does_not_touch_journal(three_model_files, tmp_path, capsys):
    path_a, path_b, path_c = three_model_files
    out_dir = tmp_path / "sweepdir"
    assert main([
        "sweep", str(path_a), str(path_b), str(path_c),
        "--shards", "2", "--out-dir", str(out_dir),
    ]) == 0
    journal = (out_dir / "checkpoint.json").read_bytes()
    assert main(["sweep-status", "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "checkpoint.json").read_bytes() == journal


def test_sweep_status_missing_journal(tmp_path, capsys):
    assert main(["sweep-status", "--out-dir", str(tmp_path / "nope")]) == 2
    assert "error" in capsys.readouterr().err


def test_sweep_store_max_entries_pins_corpus(
    three_model_files, tmp_path, capsys
):
    """Post-run eviction never drops this sweep's corpus entries —
    digest-shipped workers of a concurrent or resumed run over the
    same out-dir rehydrate models from exactly those entries."""
    from repro.core.artifact_store import ArtifactStore, model_digest
    from repro import read_sbml_file

    path_a, path_b, path_c = three_model_files
    out_dir = tmp_path / "sweepdir"
    # Plant a non-corpus entry: it is evictable, the corpus is not.
    store = ArtifactStore(out_dir / "artifacts")
    stray = "ab" + "0" * 62
    from repro.core.artifact_store import ModelArtifacts
    store.put(stray, ModelArtifacts(used_ids=set(), registry=None, initial={}))
    assert main([
        "sweep", str(path_a), str(path_b), str(path_c),
        "--shards", "2", "--out-dir", str(out_dir),
        "--store-max-entries", "0",
    ]) == 0
    err = capsys.readouterr().err
    assert "evicted 1 artifact store entry" in err
    assert stray not in store
    digests = {
        model_digest(read_sbml_file(path).model)
        for path in (path_a, path_b, path_c)
    }
    for digest in digests:
        assert digest in store
    assert len(store) == 3


def test_sweep_store_max_entries_needs_out_dir(three_model_files, capsys):
    path_a, path_b, path_c = three_model_files
    assert main([
        "sweep", str(path_a), str(path_b), str(path_c),
        "--store-max-entries", "1",
    ]) == 2
    assert "--out-dir" in capsys.readouterr().err


def test_sweep_prescreen_byte_identical(three_model_files, tmp_path, capsys):
    """--prescreen is a pure go-faster knob: the deterministic CSV is
    byte-identical to the full sweep (the eighth conformance path, on
    the CLI)."""
    path_a, path_b, path_c = three_model_files
    full = tmp_path / "full.csv"
    screened = tmp_path / "screened.csv"
    assert main(
        ["sweep", str(path_a), str(path_b), str(path_c),
         "--deterministic", "-o", str(full)]
    ) == 0
    assert main(
        ["sweep", str(path_a), str(path_b), str(path_c),
         "--deterministic", "--prescreen", "-o", str(screened)]
    ) == 0
    err = capsys.readouterr().err
    assert screened.read_bytes() == full.read_bytes()
    assert "prescreen-synthesized" in err


# ---------------------------------------------------------------------------
# corpus index / corpus query
# ---------------------------------------------------------------------------


@pytest.fixture
def corpus_files(tmp_path):
    from repro.corpus import generate_corpus

    paths = []
    for position, model in enumerate(generate_corpus(count=8, seed=19)):
        path = tmp_path / f"c{position:02d}.xml"
        write_sbml_file(model, path)
        paths.append(path)
    return paths


def test_corpus_index_build_and_update(corpus_files, tmp_path, capsys):
    index_file = tmp_path / "corpus.idx"
    assert main(
        ["corpus", "index", *map(str, corpus_files[:5]),
         "--index", str(index_file)]
    ) == 0
    out = capsys.readouterr().out
    assert "5 model(s) (5 new, 0 refreshed)" in out
    # Incremental update: 3 new, 1 refreshed, nothing rebuilt.
    assert main(
        ["corpus", "index", *map(str, corpus_files[4:]),
         "--index", str(index_file)]
    ) == 0
    out = capsys.readouterr().out
    assert "8 model(s) (3 new, 1 refreshed)" in out


def test_corpus_query_byte_identical_to_linear_scan(
    corpus_files, tmp_path, capsys
):
    """The CI smoke contract: ``--top-k 0 --with-pruned
    --deterministic`` against the index equals a full linear scan,
    byte for byte."""
    index_file = tmp_path / "corpus.idx"
    assert main(
        ["corpus", "index", *map(str, corpus_files),
         "--index", str(index_file)]
    ) == 0
    indexed_csv = tmp_path / "indexed.csv"
    linear_csv = tmp_path / "linear.csv"
    assert main(
        ["corpus", "query", str(corpus_files[2]),
         "--index", str(index_file), "--top-k", "0", "--with-pruned",
         "--deterministic", "-o", str(indexed_csv)]
    ) == 0
    err = capsys.readouterr().err
    assert "prescreen-synthesized" in err
    assert main(
        ["corpus", "query", str(corpus_files[2]),
         "--linear", *map(str, corpus_files),
         "--deterministic", "-o", str(linear_csv)]
    ) == 0
    capsys.readouterr()
    assert indexed_csv.read_bytes() == linear_csv.read_bytes()


def test_corpus_query_top_k_limits_full_matches(
    corpus_files, tmp_path, capsys
):
    index_file = tmp_path / "corpus.idx"
    assert main(
        ["corpus", "index", *map(str, corpus_files),
         "--index", str(index_file)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["corpus", "query", str(corpus_files[4]),
         "--index", str(index_file), "--top-k", "1"]
    ) == 0
    captured = capsys.readouterr()
    assert "1 candidate(s) fully matched (top 1 of 4)" in captured.err
    # Pretty table: header + one matched row, pruned rows omitted.
    assert len(captured.out.strip().splitlines()) == 2


def test_corpus_query_needs_exactly_one_mode(corpus_files, capsys):
    assert main(["corpus", "query", str(corpus_files[0])]) == 2
    assert "--index or" in capsys.readouterr().err
    assert main(
        ["corpus", "query", str(corpus_files[0]),
         "--index", "x.idx", "--linear", str(corpus_files[1])]
    ) == 2


def test_corpus_index_semantics_mismatch_rejected(
    corpus_files, tmp_path, capsys
):
    index_file = tmp_path / "corpus.idx"
    assert main(
        ["corpus", "index", str(corpus_files[0]),
         "--index", str(index_file)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["corpus", "index", str(corpus_files[1]),
         "--index", str(index_file), "--semantics", "none"]
    ) == 2
    assert "different key options" in capsys.readouterr().err
    assert main(
        ["corpus", "query", str(corpus_files[0]),
         "--index", str(index_file), "--semantics", "none"]
    ) == 2


def test_corpus_index_evict_and_store_pinning(
    corpus_files, tmp_path, capsys
):
    from repro.core.artifact_store import ArtifactStore
    from repro.core.corpus_index import CorpusIndex

    index_file = tmp_path / "corpus.idx"
    store_dir = tmp_path / "store"
    assert main(
        ["corpus", "index", *map(str, corpus_files),
         "--index", str(index_file), "--store", str(store_dir),
         "--evict-to", "6", "--store-max-entries", "0"]
    ) == 0
    captured = capsys.readouterr()
    assert "2 evicted" in captured.out
    assert "evicted 2 unpinned artifact store entries" in captured.err
    index = CorpusIndex.load(index_file)
    assert len(index) == 6
    # Exactly the index's 6 pinned entries survive in the store.
    store = ArtifactStore(store_dir)
    assert len(store) == 6
    for digest in index.digests():
        assert store.get(digest) is not None


def test_corpus_query_stale_file_warns(corpus_files, tmp_path, capsys):
    index_file = tmp_path / "corpus.idx"
    assert main(
        ["corpus", "index", *map(str, corpus_files[:4]),
         "--index", str(index_file)]
    ) == 0
    # Rewrite one indexed file with different content.
    from repro.corpus import generate_corpus

    replacement = generate_corpus(count=8, seed=19)[6]
    write_sbml_file(replacement, corpus_files[1])
    capsys.readouterr()
    # c07 has blocked candidates among the first four (c01 included),
    # so the rewritten file is loaded for a full match and its digest
    # no longer matches the index entry.
    assert main(
        ["corpus", "query", str(corpus_files[7]),
         "--index", str(index_file), "--top-k", "0"]
    ) == 0
    assert "stale digest" in capsys.readouterr().err
