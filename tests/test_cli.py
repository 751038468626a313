"""Tests for the command-line interface."""

from __future__ import annotations

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["psi"])
        assert args.ecd_nm == 35.0
        assert args.target == 0.02


class TestCommands:
    def test_psi(self, capsys):
        assert main(["psi", "--points", "10"]) == 0
        out = capsys.readouterr().out
        assert "Psi vs pitch" in out
        assert "Psi = 2% at pitch" in out

    def test_psi_custom_target(self, capsys):
        assert main(["psi", "--points", "8", "--target", "0.05"]) == 0
        assert "5% at pitch" in capsys.readouterr().out

    def test_design(self, capsys):
        assert main(["design", "--ecds-nm", "35",
                     "--ratios", "1.5,3.0"]) == 0
        out = capsys.readouterr().out
        assert "Psi (%)" in out
        assert out.count("\n") >= 4

    def test_wer(self, capsys):
        assert main(["wer", "--vp", "1.0", "--target", "1e-4",
                     "--samples", "20000"]) == 0
        out = capsys.readouterr().out
        assert "WER=0.0001" in out
        assert "sampled WER" in out

    def test_wer_seed_reproducible(self, capsys):
        argv = ["wer", "--vp", "1.0", "--target", "1e-4",
                "--samples", "20000", "--seed", "5"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_memsys(self, capsys):
        assert main(["memsys", "--pitch-nm", "70", "--pattern",
                     "random", "--ecc", "secded", "--seed", "1",
                     "--rows", "16", "--cols", "16",
                     "--transactions", "2000"]) == 0
        out = capsys.readouterr().out
        assert "raw BER (pre-ECC)" in out
        assert "post-ECC UBER" in out
        assert "pitch sweep" in out
        assert "worst-pattern UBER rises as pitch shrinks" in out

    def test_memsys_seed_reproducible(self, capsys):
        argv = ["memsys", "--seed", "9", "--rows", "16", "--cols",
                "16", "--transactions", "1000"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_memsys_binomial_sampler(self, capsys):
        assert main(["memsys", "--seed", "3", "--rows", "16",
                     "--cols", "16", "--transactions", "1000",
                     "--no-sweep"]) == 0
        out = capsys.readouterr().out
        assert "sampler" not in out
        assert "raw BER (pre-ECC)" in out
        assert "pitch sweep skipped" in out

    def test_memsys_sampler_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["memsys", "--sampler", "binomial"])
        assert exc.value.code == 2
        assert "--sampler" in capsys.readouterr().err

    def test_memsys_profile_breakdown(self, capsys):
        assert main(["memsys", "--seed", "3", "--rows", "16",
                     "--cols", "16", "--transactions", "1000",
                     "--profile", "--no-sweep"]) == 0
        out = capsys.readouterr().out
        assert "phase wall-time breakdown" in out
        for phase in ("draw", "place", "total"):
            assert phase in out

    def test_memsys_preset_overlays_defaults(self):
        from repro.cli import _apply_memsys_preset, build_parser
        args = build_parser().parse_args(
            ["memsys", "--preset", "chip-1024",
             "--transactions", "5000"])
        _apply_memsys_preset(args)
        # preset values land...
        assert args.rows == args.cols == 1024
        assert not hasattr(args, "sampler")
        assert args.nominal_wer == 1e-6
        assert args.no_sweep is True
        assert args.topology == "banked"
        assert args.banks == args.subarrays == 4
        # ...but explicit flags win.
        assert args.transactions == 5000

    def test_memsys_banked_run(self, capsys):
        assert main(["memsys", "--seed", "2", "--rows", "32",
                     "--cols", "32", "--transactions", "2000",
                     "--topology", "banked", "--banks", "2",
                     "--subarrays", "2", "--no-sweep"]) == 0
        out = capsys.readouterr().out
        assert "topology: banked, 2 banks x 2 subarrays" in out
        assert "4 independent shards" in out
        assert "raw BER (pre-ECC)" in out

    def test_memsys_banks_without_topology_infers_banked(self, capsys):
        assert main(["memsys", "--seed", "2", "--rows", "32",
                     "--cols", "32", "--transactions", "2000",
                     "--banks", "2", "--subarrays", "2",
                     "--no-sweep"]) == 0
        out = capsys.readouterr().out
        assert "topology: banked, 2 banks x 2 subarrays" in out

    @pytest.mark.parametrize("topology", [[], ["--topology", "banked",
                                                "--banks", "2"]])
    def test_memsys_profile_on_completed_resume(self, capsys, tmp_path,
                                                topology):
        """A resume answered from a finalized checkpoint still prints
        the requested profile."""
        argv = ["memsys", "--seed", "4", "--rows", "32", "--cols",
                "32", "--transactions", "2000", "--no-sweep",
                "--checkpoint", str(tmp_path)] + topology
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume", "--profile"]) == 0
        resumed = capsys.readouterr().out
        assert "phase wall-time breakdown" in resumed
        assert "post-ECC UBER" in resumed
        # Same metric table as the original run.
        table = first.split("metric", 1)[1].split("\n\n", 1)[0]
        assert table in resumed

    def test_memsys_resume_with_another_seed_is_refused(self, capsys,
                                                        tmp_path):
        argv = ["memsys", "--rows", "16", "--cols", "16",
                "--transactions", "2000", "--no-sweep",
                "--checkpoint", str(tmp_path)]
        assert main(argv + ["--seed", "1"]) == 0
        capsys.readouterr()
        assert main(argv + ["--seed", "2", "--resume"]) == 2
        out = capsys.readouterr().out
        assert "resume refused" in out
        assert "seed_state" in out

    def test_memsys_banked_1x1_matches_flat(self, capsys):
        argv = ["memsys", "--seed", "2", "--rows", "16", "--cols",
                "16", "--transactions", "1000", "--no-sweep"]
        assert main(argv) == 0
        flat = capsys.readouterr().out
        assert main(argv + ["--topology", "banked"]) == 0
        banked = capsys.readouterr().out
        # Identical physics modulo the extra topology line.
        stripped = "\n".join(line for line in banked.splitlines()
                             if not line.startswith("topology:"))
        assert stripped.strip() == flat.strip()

    def test_memsys_cross_point_reports_sneak(self, capsys):
        assert main(["memsys", "--seed", "9", "--rows", "32",
                     "--cols", "32", "--transactions", "20000",
                     "--topology", "cross-point", "--banks", "2",
                     "--subarrays", "2", "--read-voltage", "0.3",
                     "--no-sweep"]) == 0
        out = capsys.readouterr().out
        assert "topology: cross_point" in out
        assert "half-select sneak flips" in out

    def test_memsys_preset_runs(self, capsys):
        assert main(["memsys", "--preset", "stress", "--seed", "1",
                     "--rows", "16", "--cols", "16",
                     "--transactions", "500", "--no-sweep"]) == 0
        out = capsys.readouterr().out
        assert "checkerboard traffic" in out

    def test_memsys_out(self, tmp_path, capsys):
        out_dir = str(tmp_path / "memsys")
        assert main(["memsys", "--seed", "1", "--rows", "16",
                     "--cols", "16", "--transactions", "1000",
                     "--out", out_dir]) == 0
        assert "wrote" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out_dir,
                                           "memsys_run.json"))
        assert os.path.exists(os.path.join(out_dir,
                                           "memsys_sweep.csv"))

    def test_model_card(self, tmp_path, capsys):
        out_dir = str(tmp_path / "card")
        assert main(["model-card", "--out", out_dir,
                     "--name", "cell"]) == 0
        assert os.path.exists(os.path.join(out_dir, "cell.sp"))
        assert "wrote" in capsys.readouterr().out

    def test_design_process_executor_matches_serial(self, capsys):
        argv = ["design", "--ecds-nm", "35", "--ratios", "1.5,3.0"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2",
                            "--executor", "process"]) == 0
        assert capsys.readouterr().out == serial

    def test_rejects_unknown_executor(self):
        for name in ("fibers", "thread"):
            with pytest.raises(SystemExit) as err:
                build_parser().parse_args(["design", "--executor", name])
            assert err.value.code == 2

    def test_memsys_distributed_executor_matches_serial(self, capsys):
        argv = ["memsys", "--seed", "4", "--rows", "16", "--cols",
                "16", "--transactions", "500"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2", "--executor",
                            "distributed"]) == 0
        assert capsys.readouterr().out == serial


class TestWorkerCommand:
    def test_requires_spool(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_SPOOL", raising=False)
        assert main(["worker", "--max-idle", "1"]) == 1
        assert "no spool directory" in capsys.readouterr().out

    def test_exits_on_shutdown_sentinel(self, tmp_path, capsys):
        from repro.sweep import SHUTDOWN_SENTINEL
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / SHUTDOWN_SENTINEL).touch()
        assert main(["worker", "--spool", str(spool), "--id", "w-cli",
                     "--poll", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "worker w-cli" in out
        assert "served 0 chunk(s)" in out


class TestCacheCommand:
    def test_requires_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
        assert main(["cache", "info"]) == 1
        assert "no kernel cache configured" in capsys.readouterr().out

    def test_warm_info_clear_cycle(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "kc")
        assert main(["cache", "warm", "--dir", cache_dir,
                     "--ecds-nm", "35", "--ratios", "1.5,2.0",
                     "--order", "1"]) == 0
        out = capsys.readouterr().out
        assert "warmed" in out

        assert main(["cache", "info", "--dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "valid       True" in out
        assert "entries     0" not in out

        assert main(["cache", "clear", "--dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "info", "--dir", cache_dir]) == 0
        assert "entries     0" in capsys.readouterr().out

    def test_info_reads_env_var(self, tmp_path, capsys, monkeypatch):
        cache_dir = str(tmp_path / "kc")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", cache_dir)
        assert main(["cache", "info"]) == 0
        assert cache_dir in capsys.readouterr().out

    def test_warm_leaves_global_store_unbacked(self, tmp_path):
        from repro.arrays.kernel_store import get_kernel_store
        assert main(["cache", "warm", "--dir", str(tmp_path / "kc"),
                     "--ecds-nm", "35", "--ratios", "1.5",
                     "--order", "1"]) == 0
        assert get_kernel_store().disk is None

    def test_warm_fails_when_flush_cannot_write(self, tmp_path,
                                                monkeypatch, capsys):
        """A warm whose flush is swallowed into disk_write_failures
        must exit nonzero even if the cache file already holds
        entries."""
        from repro.arrays.kernel_disk import DiskKernelCache
        cache_dir = str(tmp_path / "kc")
        assert main(["cache", "warm", "--dir", cache_dir,
                     "--ecds-nm", "35", "--ratios", "1.5",
                     "--order", "1"]) == 0
        capsys.readouterr()

        def broken_write(self, entries):
            raise OSError("disk full")

        monkeypatch.setattr(DiskKernelCache, "write", broken_write)
        assert main(["cache", "warm", "--dir", cache_dir,
                     "--ecds-nm", "45", "--ratios", "1.5",
                     "--order", "1"]) == 1
        assert "cache warm failed" in capsys.readouterr().out

    def test_warm_repairs_corrupt_cache_and_exits_green(self, tmp_path,
                                                        capsys):
        """Warming over a corrupt file is the documented repair path —
        it replaces the file and must NOT report failure."""
        cache_dir = str(tmp_path / "kc")
        assert main(["cache", "warm", "--dir", cache_dir,
                     "--ecds-nm", "35", "--ratios", "1.5",
                     "--order", "1"]) == 0
        from repro.arrays.kernel_disk import DiskKernelCache
        with open(DiskKernelCache(cache_dir).data_path, "r+b") as fh:
            fh.write(b"GARBAGE!")
        capsys.readouterr()
        assert main(["cache", "warm", "--dir", cache_dir,
                     "--ecds-nm", "35", "--ratios", "1.5",
                     "--order", "1"]) == 0
        assert "cache warm failed" not in capsys.readouterr().out
        assert main(["cache", "info", "--dir", cache_dir]) == 0
        assert "valid       True" in capsys.readouterr().out

    def test_warm_preserves_env_attachment_semantics(self, tmp_path,
                                                     monkeypatch):
        """Warming an explicit --dir must not promote an env-attached
        backend to explicit: the env opt-out keeps working after."""
        from repro.arrays.kernel_store import get_kernel_store
        monkeypatch.setenv("REPRO_KERNEL_CACHE",
                           str(tmp_path / "env"))
        get_kernel_store()   # attach from env
        assert main(["cache", "warm", "--dir", str(tmp_path / "other"),
                     "--ecds-nm", "35", "--ratios", "1.5",
                     "--order", "1"]) == 0
        store = get_kernel_store()
        assert store.disk.directory == str(tmp_path / "env")
        monkeypatch.delenv("REPRO_KERNEL_CACHE")
        assert get_kernel_store().disk is None


class TestAuditCommand:
    def _kept_run(self, tmp_path):
        from test_integrity import square_point
        from repro.sweep.distributed import DistributedBroker
        spool = str(tmp_path / "spool")
        broker = DistributedBroker(square_point, spool=spool, jobs=1,
                                   spawn=0, poll=0.02, timeout=60.0,
                                   chunk_size=2, keep_run=True)
        broker.run([{"x": i} for i in range(5)])
        run = [n for n in os.listdir(spool) if n.startswith("run-")][0]
        return spool, os.path.join(spool, run)

    def test_audit_clean_spool_passes(self, tmp_path, capsys):
        spool, _ = self._kept_run(tmp_path)
        assert main(["audit", "--spool", spool]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_audit_detects_flipped_byte(self, tmp_path, capsys):
        spool, run_path = self._kept_run(tmp_path)
        victim = os.path.join(run_path, "results", "chunk-000000.pkl")
        blob = bytearray(open(victim, "rb").read())
        blob[-3] ^= 0x04
        open(victim, "wb").write(bytes(blob))
        assert main(["audit", "--run", run_path]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_audit_canary_alone(self, capsys):
        assert main(["audit", "--canary"]) == 0
        assert "cross-backend-canary" in capsys.readouterr().out

    def test_audit_without_targets_is_usage_error(self, capsys,
                                                  monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_SPOOL", raising=False)
        assert main(["audit"]) == 2
        assert "nothing to audit" in capsys.readouterr().out

    def test_audit_json_output(self, tmp_path, capsys):
        import json
        spool, _ = self._kept_run(tmp_path)
        assert main(["audit", "--spool", spool, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["passed"] is True
        assert record["counts"]["fail"] == 0


class TestSpoolCommand:
    def test_requires_spool(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_SPOOL", raising=False)
        assert main(["spool", "fsck"]) == 2
        assert "no spool given" in capsys.readouterr().out

    def test_fsck_detect_then_repair(self, tmp_path, capsys):
        spool, run_path = TestAuditCommand()._kept_run(tmp_path)
        victim = os.path.join(run_path, "results", "chunk-000001.pkl")
        blob = open(victim, "rb").read()
        open(victim, "wb").write(blob[: len(blob) // 2])

        assert main(["spool", "fsck", "--spool", spool]) == 1
        out = capsys.readouterr().out
        assert "torn-result" in out and "found" in out

        assert main(["spool", "fsck", "--spool", spool,
                     "--repair"]) == 0
        assert "repaired" in capsys.readouterr().out

        assert main(["spool", "fsck", "--spool", spool]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_ls_quarantine(self, tmp_path, capsys):
        import json
        qdir = tmp_path / "quarantine"
        qdir.mkdir()
        (qdir / "chunk-000002.json").write_text(json.dumps(
            {"chunk": 2, "error": "ValueError('poison')",
             "error_type": "ValueError", "attempts": 3,
             "workers": ["w1"]}))
        assert main(["spool", "ls-quarantine", "--spool",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "chunk 2" in out and "ValueError" in out
