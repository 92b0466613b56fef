"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestFigureCommand:
    def test_fig4(self, capsys):
        assert main(["figure", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "Fig 4" in out
        assert "DIFFERS" in out

    def test_fig3(self, capsys):
        assert main(["figure", "fig3"]) == 0
        assert "Fig 3" in capsys.readouterr().out

    def test_fig11(self, capsys):
        assert main(["figure", "fig11"]) == 0
        assert "Fig 11" in capsys.readouterr().out

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_list_catalog(self, capsys):
        assert main(["figure", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig9a", "fig11", "appendix_a"):
            assert name in out
        assert "Lemma-4" in out  # descriptions, not just names

    def test_no_name_and_no_list_is_an_error(self, capsys):
        assert main(["figure"]) == 2
        assert "--list" in capsys.readouterr().err


class TestRunCommand:
    def test_list_catalog(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "Monte-Carlo" in out

    def test_unknown_name_lists_known_up_front(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "fig2" in err

    def test_run_with_store_resume_and_rerender(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        args = ["run", "fig4", "--store", store]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "Fig 4" in first.out
        assert "0 loaded" in first.err

        # Second invocation re-renders entirely from the store.
        assert main(args) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "0 computed" in second.err

    def test_run_limit_then_resume(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        assert main(["run", "fig4", "--store", store, "--limit", "2"]) == 0
        partial = capsys.readouterr()
        assert "partial" in partial.err
        assert main(["run", "fig4", "--store", store, "--resume"]) == 0
        resumed = capsys.readouterr()
        assert "Fig 4" in resumed.out
        assert "0 recomputed" in resumed.err

    def test_run_spec_json(self, tmp_path, capsys):
        from repro.analysis import fig11

        spec = fig11.default_spec(systems=((71, 3),), k_max=3)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["run", str(path), "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "Fig 11" in out

    def test_run_bad_spec_json(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"experiment": "nope"}))
        assert main(["run", str(path), "--no-store"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_missing_target(self, capsys):
        assert main(["run"]) == 2
        assert "--list" in capsys.readouterr().err

    def test_run_spec_missing_constants_fails_cleanly(self, tmp_path, capsys):
        # Kernel-level spec errors surface as `run: ...`, not a traceback.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"experiment": "fig2"}))
        assert main(["run", str(path), "--no-store"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run:") and "constant" in err

    def test_run_bad_workers_fails_cleanly(self, capsys):
        assert main(["run", "fig4", "--no-store", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err


class TestPlaceCommand:
    def test_random_to_stdout(self, capsys):
        assert main([
            "place", "--strategy", "random",
            "--n", "13", "--r", "3", "--b", "20", "--seed", "5",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 13
        assert len(payload["replica_sets"]) == 20

    def test_simple_with_lambda_note(self, capsys):
        assert main([
            "place", "--strategy", "simple",
            "--n", "13", "--r", "3", "--b", "30", "--x", "1",
        ]) == 0
        captured = capsys.readouterr()
        assert "lambda=2" in captured.err
        payload = json.loads(captured.out)
        assert payload["strategy"].startswith("Simple")

    def test_combo_to_file(self, tmp_path, capsys):
        target = tmp_path / "placement.json"
        assert main([
            "place", "--n", "13", "--r", "3", "--b", "26",
            "--s", "2", "--k", "3", "--output", str(target),
        ]) == 0
        captured = capsys.readouterr()
        assert "lower_bound" in captured.err
        payload = json.loads(target.read_text())
        assert len(payload["replica_sets"]) == 26


class TestAttackCommand:
    def test_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "placement.json"
        main([
            "place", "--strategy", "random",
            "--n", "12", "--r", "3", "--b", "24",
            "--seed", "1", "--output", str(target),
        ])
        capsys.readouterr()
        assert main([
            "attack", str(target), "--k", "3", "--s", "2",
            "--effort", "exact",
        ]) == 0
        out = capsys.readouterr().out
        assert "certified optimal: yes" in out
        assert "objects killed:" in out

    def test_batched_k_grid_with_kernel_choice(
        self, tmp_path, capsys, monkeypatch
    ):
        target = tmp_path / "placement.json"
        main([
            "place", "--strategy", "random",
            "--n", "12", "--r", "3", "--b", "24",
            "--seed", "1", "--output", str(target),
        ])
        capsys.readouterr()
        monkeypatch.setenv("REPRO_GAIN_BACKING", "python")
        assert main([
            "attack", str(target), "--k", "2", "--k", "3", "--s", "2",
            "--effort", "exact", "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "--- k=2 ---" in out
        assert "--- k=3 ---" in out
        assert out.count("certified optimal: yes") == 2


class TestAuditCommand:
    def test_audit_placement_file(self, tmp_path, capsys):
        target = tmp_path / "placement.json"
        main([
            "place", "--strategy", "random",
            "--n", "12", "--r", "3", "--b", "24",
            "--seed", "2", "--output", str(target),
        ])
        capsys.readouterr()
        assert main([
            "audit", str(target), "--k", "3", "--k", "4", "--s", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "placement audit" in out
        assert "k=3, s=2" in out
        assert "k=4, s=2" in out


class TestSimulateCommand:
    def test_lifetime_run_renders_report(self, capsys):
        assert main([
            "simulate", "--events", "300", "--seed", "4",
            "--failure-rate", "0.02", "--repair", "lazy",
        ]) == 0
        out = capsys.readouterr().out
        assert "Lifetime summary" in out
        assert "Availability over time" in out
        assert "Adversary strikes" in out

    def test_json_archive(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main([
            "simulate", "--events", "200", "--strike-period", "12",
            "--json", str(target),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(target.read_text())
        assert payload["schema"] == "sim_report/v1"
        assert payload["events"] == 200
        assert payload["bound_violations"] == 0

    def test_engine_modes_agree(self, capsys):
        args = ["simulate", "--events", "250", "--seed", "6",
                "--measure-period", "0"]
        assert main(args + ["--engine", "delta"]) == 0
        delta_out = capsys.readouterr().out
        assert main(args + ["--engine", "rebuild"]) == 0
        rebuild_out = capsys.readouterr().out
        # Identical strike tables; only the engine-mode line differs.
        strip = lambda text: [
            line for line in text.splitlines() if "engine mode" not in line
            and "wall seconds" not in line and "events/sec" not in line
        ]
        assert strip(delta_out) == strip(rebuild_out)


class TestBoundsCommand:
    def test_fig9_cell(self, capsys):
        assert main([
            "bounds", "--n", "71", "--r", "3", "--s", "2",
            "--b", "2400", "--k", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "lbAvail_co" in out
        assert "prAvail_rnd" in out
        assert "winner: combo" in out


class TestCatalogCommand:
    def test_single_order(self, capsys):
        assert main(["catalog", "--r", "4", "--t", "3", "--v", "26"]) == 0
        assert "KNOWN" in capsys.readouterr().out

    def test_order_list(self, capsys):
        assert main([
            "catalog", "--r", "3", "--t", "2", "--max-v", "30",
            "--tier", "constructible",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 7 9 13 15 19 21 25 27" in out
        assert "largest: 27" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestNpzArtifacts:
    def test_place_npz_attack_matches_json(self, tmp_path, capsys):
        json_target = tmp_path / "placement.json"
        npz_target = tmp_path / "placement.npz"
        for target in (json_target, npz_target):
            assert main([
                "place", "--strategy", "random",
                "--n", "12", "--r", "3", "--b", "24",
                "--seed", "1", "--output", str(target),
            ]) == 0
        capsys.readouterr()
        assert main([
            "attack", str(json_target), "--k", "3", "--s", "2",
            "--effort", "exact",
        ]) == 0
        json_out = capsys.readouterr().out
        assert main([
            "attack", str(npz_target), "--k", "3", "--s", "2",
            "--effort", "exact",
        ]) == 0
        npz_out = capsys.readouterr().out
        # Identical placement structure => bit-identical attack output.
        assert npz_out == json_out
        assert "certified optimal: yes" in npz_out

    def test_place_format_npz_appends_extension(self, tmp_path, capsys):
        target = tmp_path / "placement"
        assert main([
            "place", "--strategy", "random",
            "--n", "12", "--r", "3", "--b", "10",
            "--seed", "3", "--format", "npz", "--output", str(target),
        ]) == 0
        err = capsys.readouterr().err
        assert "placement.npz" in err
        from repro.core.artifact import load_placement

        loaded = load_placement(str(target) + ".npz")
        assert loaded.b == 10

    def test_format_npz_without_output_fails(self, capsys):
        assert main([
            "place", "--strategy", "random",
            "--n", "12", "--r", "3", "--b", "10", "--format", "npz",
        ]) == 2
        assert "--output" in capsys.readouterr().err

    def test_audit_accepts_npz(self, tmp_path, capsys):
        target = tmp_path / "placement.npz"
        main([
            "place", "--strategy", "random",
            "--n", "12", "--r", "3", "--b", "24",
            "--seed", "2", "--output", str(target),
        ])
        capsys.readouterr()
        assert main([
            "audit", str(target), "--k", "3", "--s", "2",
        ]) == 0
        assert "placement audit" in capsys.readouterr().out

    def test_simulate_writes_final_placement(self, tmp_path, capsys):
        target = tmp_path / "final.npz"
        assert main([
            "simulate", "--events", "220", "--measure-period", "0",
            "--final-placement", str(target),
        ]) == 0
        err = capsys.readouterr().err
        assert "final placement" in err
        from repro.core.artifact import load_placement

        snapshot = load_placement(str(target))
        assert snapshot.b >= 1
        assert snapshot.strategy == "snapshot"
