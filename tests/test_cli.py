"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.genome import SegmentClass, build_pair, write_fasta


@pytest.fixture(scope="module")
def fasta_pair(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    pair = build_pair(
        "cli",
        target_length=30_000,
        query_length=30_000,
        classes=[SegmentClass("seg", 25, 80, 300, divergence=0.05)],
        rng=9,
    )
    t_path = tmp / "t.fa"
    q_path = tmp / "q.fa"
    write_fasta(t_path, [pair.target])
    write_fasta(q_path, [pair.query])
    return str(t_path), str(q_path)


_FAST = ["--gap-extend", "60", "--ydrop", "2400"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_align_defaults(self):
        args = build_parser().parse_args(["align", "a.fa", "b.fa"])
        assert args.engine == "lastz"
        assert args.gap_open == 400

    def test_batch_size_defaults_to_options(self):
        from repro.core import FastzOptions

        for argv in (
            ["align", "a.fa", "b.fa"],
            ["trace", "a.fa", "b.fa"],
            ["wga", "a.fa", "b.fa", "--job-dir", "jd"],
        ):
            args = build_parser().parse_args(argv)
            assert args.batch_size == FastzOptions().batch_size


class TestAlign:
    def test_lastz_engine(self, fasta_pair, capsys):
        t, q = fasta_pair
        assert main(["align", t, q, *_FAST]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(lines) > 5
        fields = lines[0].split("\t")
        assert len(fields) == 9
        assert int(fields[0]) >= 3000  # score column clears the threshold
        assert fields[8].endswith("M") or "I" in fields[8]  # cigar

    def test_fastz_engine_matches_lastz(self, fasta_pair, capsys):
        t, q = fasta_pair
        main(["align", t, q, *_FAST])
        lastz_out = {
            l.split("\t")[0:7][0]
            for l in capsys.readouterr().out.splitlines()
            if not l.startswith("#")
        }
        main(["align", t, q, "--engine", "fastz", *_FAST])
        fastz_out = {
            l.split("\t")[0:7][0]
            for l in capsys.readouterr().out.splitlines()
            if not l.startswith("#")
        }
        assert lastz_out <= fastz_out

    def test_ungapped_engine(self, fasta_pair, capsys):
        t, q = fasta_pair
        assert main(["align", t, q, "--engine", "ungapped", *_FAST]) == 0
        assert capsys.readouterr().out.startswith("#score")

    def test_no_cigar(self, fasta_pair, capsys):
        t, q = fasta_pair
        main(["align", t, q, "--no-cigar", *_FAST])
        lines = [
            l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")
        ]
        assert all(l.split("\t")[8] == "-" for l in lines)


class TestSynth:
    def test_writes_fasta(self, tmp_path, capsys):
        t_out = tmp_path / "t.fa"
        q_out = tmp_path / "q.fa"
        rc = main(
            [
                "synth",
                "--target-out", str(t_out),
                "--query-out", str(q_out),
                "--length", "5000",
                "--segments", "5",
            ]
        )
        assert rc == 0
        assert t_out.exists() and q_out.exists()
        assert t_out.read_text().startswith(">synth.target")


class TestAlignFormats:
    def test_maf_output(self, fasta_pair, capsys):
        t, q = fasta_pair
        assert main(["align", t, q, "--format", "maf", *_FAST]) == 0
        out = capsys.readouterr().out
        assert out.startswith("##maf version=1")
        assert "a score=" in out

    def test_maf_requires_cigar(self, fasta_pair, capsys):
        t, q = fasta_pair
        assert main(["align", t, q, "--format", "maf", "--no-cigar", *_FAST]) == 2

    def test_output_file(self, fasta_pair, tmp_path, capsys):
        t, q = fasta_pair
        out_path = tmp_path / "out.tsv"
        assert main(["align", t, q, "--output", str(out_path), *_FAST]) == 0
        assert out_path.read_text().startswith("#score")


class TestWga:
    def test_matches_align_fastz_byte_for_byte(self, fasta_pair, tmp_path, capsys):
        t, q = fasta_pair
        wga_out = tmp_path / "wga.maf"
        align_out = tmp_path / "align.maf"
        assert main([
            "wga", t, q,
            "--job-dir", str(tmp_path / "job"),
            "--chunk-size", "10000",
            "--format", "maf", "--output", str(wga_out),
            "--quiet", *_FAST,
        ]) == 0
        assert main([
            "align", t, q, "--engine", "fastz",
            "--format", "maf", "--output", str(align_out), *_FAST,
        ]) == 0
        capsys.readouterr()
        assert wga_out.read_bytes() == align_out.read_bytes()

    def test_rerun_resumes_and_reproduces(self, fasta_pair, tmp_path, capsys):
        t, q = fasta_pair
        args = [
            "wga", t, q,
            "--job-dir", str(tmp_path / "job"),
            "--chunk-size", "10000",
            "--quiet", *_FAST,
        ]
        first = tmp_path / "first.tsv"
        second = tmp_path / "second.tsv"
        assert main([*args, "--output", str(first)]) == 0
        assert main([*args, "--output", str(second)]) == 0
        err = capsys.readouterr().err
        assert "(resumed)" in err
        assert first.read_bytes() == second.read_bytes()

    def test_wga_defaults(self):
        args = build_parser().parse_args(
            ["wga", "a.fa", "b.fa", "--job-dir", "jd"]
        )
        assert args.chunk_size == 32_768
        assert args.workers == 0
        assert args.max_attempts == 3
        assert not args.fresh
        assert not args.strict

    def test_strict_exit_code_on_quarantine(
        self, fasta_pair, tmp_path, monkeypatch, capsys
    ):
        import repro.jobs as jobs_mod
        from repro.jobs.runner import QuarantinedTask, WgaReport

        t, q = fasta_pair

        def fake_run_wga(*args, **kwargs):
            return WgaReport(
                alignments=[],
                job_dir=tmp_path / "job",
                digest="x",
                resumed=False,
                n_anchors=0,
                n_seed_tasks=1,
                n_extend_tasks=0,
                seed_skipped=0,
                extend_skipped=0,
                retries=2,
                worker_deaths=0,
                window_fallbacks=0,
                quarantined=[QuarantinedTask("seed", "c0x0", 3, "boom")],
            )

        monkeypatch.setattr(jobs_mod, "run_wga", fake_run_wga)
        base = ["wga", t, q, "--job-dir", str(tmp_path / "job"), "--quiet", *_FAST]
        # Default keeps the exit-0 "completes with a reported gap" contract.
        assert main(base) == 0
        # --strict makes the gap visible to scripted callers via the status.
        assert main([*base, "--strict"]) == 3
        err = capsys.readouterr().err
        assert "quarantined" in err and "c0x0" in err


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestTrace:
    def test_span_tree_matches_direct_run(self, fasta_pair, capsys):
        """The printed trace agrees with a direct ``run_fastz`` result."""
        from repro import run_fastz
        from repro.core import FastzOptions
        from repro.genome import read_fasta
        from repro.lastz import LastzConfig
        from repro.scoring import default_scheme

        t, q = fasta_pair
        assert main(["trace", t, q, *_FAST]) == 0
        out = capsys.readouterr().out

        config = LastzConfig(scheme=default_scheme(gap_extend=60, ydrop=2400))
        direct = run_fastz(
            read_fasta(t)[0],
            read_fasta(q)[0],
            config,
            FastzOptions(engine="batched"),
        )

        assert out.startswith("fastz.run")
        for name in ("fastz.prepare", "fastz.seeding", "fastz.extend",
                     "fastz.inspector", "fastz.finish"):
            assert name in out
        assert (
            f"eager fraction:     {direct.eager_fraction:.4f} "
            f"({direct.eager_count}/{len(direct.tasks)} anchor tasks)" in out
        )
        assert f"bins [eager,1-4]:   {direct.bin_counts().tolist()}" in out
        # Per-bin executor spans account for every non-eager task.
        import re

        executor_tasks = sum(
            int(m) for m in re.findall(r"fastz\.executor.*?tasks=(\d+)", out)
        )
        assert executor_tasks == 2 * (len(direct.tasks) - direct.eager_count)

    def test_trace_leaves_obs_disabled(self, fasta_pair, capsys):
        from repro import obs

        t, q = fasta_pair
        assert main(["trace", t, q, *_FAST]) == 0
        capsys.readouterr()
        assert not obs.enabled()

    def test_trace_metrics_flag(self, fasta_pair, capsys):
        t, q = fasta_pair
        assert main(["trace", t, q, "--metrics", *_FAST]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_pipeline_anchors_total counter" in out


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8642
        assert args.max_batch == 32
        assert args.max_queue == 256
        assert args.cache_entries == 128

    def test_serve_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--max-batch", "1", "--max-wait-ms", "0"]
        )
        assert args.port == 9000
        assert args.max_batch == 1
        assert args.max_wait_ms == 0.0

    def test_fleet_flag_is_accepted_and_gpus_default_to_zero(self):
        # `--fleet` is inert (serve always runs the fleet front door);
        # plain `serve` keeps a cpu0-only roster.
        args = build_parser().parse_args(["serve", "--fleet", "--fleet-gpus", "0"])
        assert args.fleet is True
        assert args.fleet_gpus == 0
        assert build_parser().parse_args(["serve"]).fleet_gpus == 0


class TestRefs:
    def test_add_ls_rm(self, fasta_pair, tmp_path, capsys):
        t, _q = fasta_pair
        store = str(tmp_path / "store")
        assert main(["refs", "add", t, "--store", store]) == 0
        digest = capsys.readouterr().out.split()[0]
        assert len(digest) == 64

        assert main(["refs", "ls", "--store", store]) == 0
        assert digest in capsys.readouterr().out

        assert main(["refs", "rm", digest[:10], "--store", store]) == 0
        capsys.readouterr()
        assert main(["refs", "ls", "--store", store]) == 0
        assert digest not in capsys.readouterr().out

    def test_add_is_idempotent(self, fasta_pair, tmp_path, capsys):
        t, _q = fasta_pair
        store = str(tmp_path / "store")
        main(["refs", "add", t, "--store", store])
        first = capsys.readouterr().out
        main(["refs", "add", t, "--store", store])
        assert capsys.readouterr().out == first

    def test_rm_unknown_exits_2(self, tmp_path, capsys):
        assert main(
            ["refs", "rm", "feed", "--store", str(tmp_path / "store")]
        ) == 2

    def test_store_dir_from_env(self, fasta_pair, tmp_path, capsys, monkeypatch):
        t, _q = fasta_pair
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "envstore"))
        assert main(["refs", "add", t]) == 0
        digest = capsys.readouterr().out.split()[0]
        assert main(["refs", "ls"]) == 0
        assert digest in capsys.readouterr().out

    def test_precompute_seeds(self, fasta_pair, tmp_path, capsys):
        t, _q = fasta_pair
        store = tmp_path / "store"
        main(["refs", "add", t, "--store", str(store), "--precompute-seeds"])
        digest = capsys.readouterr().out.split()[0]
        assert (store / digest[:2] / f"{digest}.seeds-v1-k19.npz").exists()


class TestAlignByRef:
    def test_ref_spec_matches_fasta(
        self, fasta_pair, tmp_path, capsys, table_builds
    ):
        t, q = fasta_pair
        store = str(tmp_path / "store")
        main(["refs", "add", t, "--store", store, "--precompute-seeds"])
        digest = capsys.readouterr().out.split()[0]

        main(["align", t, q, "--engine", "fastz", *_FAST])
        by_bytes = capsys.readouterr().out
        built = table_builds()
        main(
            ["align", f"ref:{digest[:12]}", q, "--store", store,
             "--engine", "fastz", *_FAST]
        )
        by_ref = capsys.readouterr().out
        assert by_ref == by_bytes
        # The table refs add prebuilt is the one align seeds from.
        assert table_builds() == built

    def test_wga_ref_spec_matches_fasta(
        self, fasta_pair, tmp_path, capsys, table_builds
    ):
        t, q = fasta_pair
        store = str(tmp_path / "store")
        main(["refs", "add", t, q, "--store", store, "--precompute-seeds"])
        t_ref, q_ref = (
            f"ref:{line.split()[0]}" for line in capsys.readouterr().out.splitlines()
        )
        args = ["--chunk-size", "10000", "--quiet", *_FAST]
        by_bytes, by_ref = tmp_path / "bytes.tsv", tmp_path / "ref.tsv"
        assert main([
            "wga", t, q, "--job-dir", str(tmp_path / "a"),
            "--output", str(by_bytes), *args,
        ]) == 0
        built = table_builds()
        assert main([
            "wga", t_ref, q_ref, "--store", store, "--job-dir", str(tmp_path / "b"),
            "--output", str(by_ref), *args,
        ]) == 0
        assert by_ref.read_bytes() == by_bytes.read_bytes()
        assert table_builds() == built

    def test_trace_cold_then_warm_seed_span(
        self, fasta_pair, tmp_path, capsys, table_builds
    ):
        t, q = fasta_pair
        store = str(tmp_path / "store")
        main(["refs", "add", t, "--store", store])
        digest = capsys.readouterr().out.split()[0]

        assert main(["trace", f"ref:{digest}", q, "--store", store, *_FAST]) == 0
        cold = capsys.readouterr().out
        assert "fastz.seed_table" in cold
        # Built once, by the seeding that persists it.
        assert table_builds() == 1

        assert main(["trace", f"ref:{digest}", q, "--store", store, *_FAST]) == 0
        warm = capsys.readouterr().out
        assert "fastz.seed_table" not in warm
        assert table_builds() == 1

        # The result lines after the span tree are the by-bytes run's.
        assert main(["trace", t, q, *_FAST]) == 0
        by_bytes = capsys.readouterr().out

        def results(out):
            keys = ("anchors:", "alignments:", "eager fraction:", "bins ")
            return [line for line in out.splitlines() if line.startswith(keys)]

        assert len(results(by_bytes)) == 4
        assert results(cold) == results(warm) == results(by_bytes)
