import os

import numpy as np
import pytest

from fracdamp.cli import main
from fracdamp.config import ExperimentConfig, dump_config, load_config
from fracdamp.errors import (
    CapacityError,
    CertificationError,
    ConstructionError,
    OracleFailure,
    OracleRefusal,
    PreconditionError,
    ValidationError,
)
from fracdamp.harness import build_spectrum, fmt, run, write_csv
from fracdamp.probe import ProbeConfig
from fracdamp.recipes import ACCEPTANCE_BY_NAME, recipes


SIM_CFG = """
[experiment]
kind = simulate-homogeneous
out_dir = {out}

[damping]
sigma = 0.5
delta = 1.0

[spectrum]
kind = geometric
modes = 3
base = 4.0

[initial]
u0 = basis:0
u1 = zeros

[grids]
t_start = 0.0
t_stop = 2.0
t_points = 5
alpha_grid = 0.0 0.5
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(kind="gap-scan", sigma=2.0, gaps=(0.5, -1.0), t_points=7)
        path = tmp_path / "rt.cfg"
        dump_config(cfg, path)
        back = load_config(path)
        assert back.kind == "gap-scan" and back.gaps == (0.5, -1.0) and back.t_points == 7

    def test_validation_names_field(self, tmp_path):
        path = _write(tmp_path, "[experiment]\nkind = juggle\n")
        with pytest.raises(ValidationError, match="experiment.kind"):
            load_config(path)
        path = _write(tmp_path, "[spectrum]\nbase = 0.5\n")
        with pytest.raises(ValidationError, match="spectrum.base"):
            load_config(path)
        path = _write(tmp_path, "[grids]\nt_scale = cubic\n")
        with pytest.raises(ValidationError, match="grids.t_scale"):
            load_config(path)

    def test_diverge_slack_must_be_a_fraction(self, tmp_path):
        path = _write(tmp_path, "[probe]\ndiverge_slack = 7\n")
        with pytest.raises(ValidationError, match="diverge_slack"):
            load_config(path)
        for bad in (0.0, 7.0):
            with pytest.raises(ValidationError, match="diverge_slack"):
                ProbeConfig(diverge_slack=bad)
        assert ProbeConfig(diverge_slack=1.0).diverge_slack == 1.0

    def test_unknown_keys_rejected(self, tmp_path):
        path = _write(tmp_path, "[experiment]\nkind = verify\ncolor = red\n")
        with pytest.raises(ValidationError, match="experiment.color"):
            load_config(path)
        path = _write(tmp_path, "[window]\nx = 1\n")
        with pytest.raises(ValidationError, match="window"):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ValidationError):
            load_config("/nonexistent/exp.cfg")

    def test_spectrum_csv_kind(self, tmp_path):
        spec_path = tmp_path / "spec.csv"
        spec_path.write_text("k,lambda\n0,1.0\n1,3.0\n")
        cfg = ExperimentConfig(spectrum_kind="csv", spectrum_path=str(spec_path)).validate()
        m = build_spectrum(cfg)
        assert list(m.eigenvalues) == [1.0, 3.0]


class TestArtifacts:
    def test_simulate_row_counts_match_grids(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = _write(tmp_path, SIM_CFG.format(out=out))
        cfg = load_config(cfg_path)
        paths = run(cfg)
        modes = [p for p in paths if p.endswith("modes.csv")][0]
        lines = open(modes).read().splitlines()
        assert len(lines) - 1 == 5 * 3  # t_points * modes
        norms = [p for p in paths if p.endswith("norms.csv")][0]
        assert len(open(norms).read().splitlines()) - 1 == 5 * 2  # t_points * alphas

    def test_deterministic_outputs(self, tmp_path):
        cfg_path = _write(tmp_path, SIM_CFG.format(out=tmp_path / "a"))
        cfg = load_config(cfg_path)
        run(cfg, out_dir=str(tmp_path / "a"))
        run(cfg, out_dir=str(tmp_path / "b"))
        for name in ("modes.csv", "norms.csv"):
            a = open(tmp_path / "a" / name, "rb").read()
            b = open(tmp_path / "b" / name, "rb").read()
            assert a == b

    def test_manifest_lists_hashes(self, tmp_path):
        cfg_path = _write(tmp_path, SIM_CFG.format(out=tmp_path / "m"))
        paths = run(load_config(cfg_path))
        manifest = [p for p in paths if p.endswith("manifest.txt")][0]
        lines = open(manifest).read().splitlines()
        assert len(lines) == 2
        for line in lines:
            digest, name = line.split("  ")
            assert len(digest) == 64 and name.endswith(".csv")

    def test_shortest_round_trip_formatting(self):
        assert fmt(0.1) == "0.1"
        assert fmt(np.float64(1.0 / 3.0)) == repr(1.0 / 3.0)
        assert fmt(7) == "7"

    def test_forced_simulation_has_forcing_norm(self, tmp_path):
        text = SIM_CFG.format(out=tmp_path / "f").replace(
            "kind = simulate-homogeneous", "kind = simulate-forced"
        ) + "\n[forcing]\nkind = uniform-constant\namplitude = 1.0\n"
        cfg = load_config(_write(tmp_path, text, "forced.cfg"))
        paths = run(cfg)
        norms = [p for p in paths if p.endswith("norms.csv")][0]
        header = open(norms).read().splitlines()[0]
        assert header == "t,alpha,norm_u,norm_uprime,forcing_norm"

    def test_threaded_forced_matches_serial(self, tmp_path):
        base = SIM_CFG.format(out=tmp_path / "s").replace(
            "kind = simulate-homogeneous", "kind = simulate-forced"
        ) + "\n[forcing]\nkind = uniform-constant\n"
        cfg = load_config(_write(tmp_path, base, "st.cfg"))
        run(cfg, out_dir=str(tmp_path / "serial"))
        threaded = base.replace("[experiment]", "[experiment]\nthreads = 3")
        cfg2 = load_config(_write(tmp_path, threaded, "mt.cfg"))
        run(cfg2, out_dir=str(tmp_path / "mt"))
        assert open(tmp_path / "serial" / "modes.csv").read() == open(tmp_path / "mt" / "modes.csv").read()


class TestGapAndDiagram:
    def test_gap_scan_artifact(self, tmp_path):
        text = """
[experiment]
kind = gap-scan

[damping]
sigma = 2.0

[spectrum]
modes = 11

[grids]
t_points = 7
t_stop = 1.0
gaps = -1.0 0.5
"""
        cfg = load_config(_write(tmp_path, text))
        paths = run(cfg, out_dir=str(tmp_path / "g"))
        rows = open([p for p in paths if p.endswith("gapscan.csv")][0]).read().splitlines()
        assert rows[0] == "gap,lambda,amplification"
        assert len(rows) - 1 == 2 * 11

    def test_diagram_artifact(self, tmp_path):
        text = """
[experiment]
kind = diagram

[damping]
sigma = 2.0
sigmas = 1.0 2.0

[spectrum]
modes = 24

[grids]
t_start = 1.0
t_stop = 10000.0
t_points = 20
t_scale = log
alpha_grid = 0.9 1.5
"""
        cfg = load_config(_write(tmp_path, text))
        paths = run(cfg, out_dir=str(tmp_path / "d"))
        rows = open([p for p in paths if p.endswith("diagram.csv")][0]).read().splitlines()
        assert rows[0] == "sigma,alpha,component,verdict,fit_exponent"
        assert len(rows) - 1 == 2 * 2 * 2  # sigmas x components x alphas


class TestCli:
    def test_exit_code_validation(self, tmp_path, capsys):
        bad = _write(tmp_path, "[experiment]\nkind = nope\n")
        assert main(["simulate", "--homogeneous", "--config", bad]) == 2

    def test_roots_subcommand(self, tmp_path):
        rc = main(["roots", "--sigma", "1.0", "--delta", "1.0", "--modes", "4",
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        lines = open(tmp_path / "r" / "roots.csv").read().splitlines()
        assert lines[0] == "lambda,regime,x1,x2" and len(lines) == 5

    def test_recipes_listing(self, capsys):
        assert main(["recipes"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "AC7-blowup-constants" in out
        assert len(out) == 11

    def test_recipe_configs_validate_and_dump(self, tmp_path):
        table = recipes()
        assert set(table) == set(ACCEPTANCE_BY_NAME)
        for name, cfg in table.items():
            cfg.validate()
        rc = main(["recipes", "--write-dir", str(tmp_path / "cfgs")])
        assert rc == 0
        files = os.listdir(tmp_path / "cfgs")
        assert len(files) == 11
        back = load_config(tmp_path / "cfgs" / "AC7-blowup-constants.cfg")
        assert back.kind == "acceptance" and back.recipe == "AC7-blowup-constants"

    def test_run_single_recipe(self, tmp_path, capsys):
        rc = main(["recipes", "--run", "AC8-resonance-limit", "--out", str(tmp_path / "acc")])
        assert rc == 0
        out_dir = tmp_path / "acc" / "AC8-resonance-limit"
        assert (out_dir / "AC8-resonance-limit.csv").exists()
        assert "AC8: PASS" in capsys.readouterr().out

    def test_unknown_recipe_is_validation_error(self):
        assert main(["recipes", "--run", "AC99-nope"]) == 2

    def test_negative_seed_exits_validation(self, tmp_path, capsys):
        rc = main(["simulate", "--forced", "--seed", "-1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "validation error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc,code,label",
        [
            (ValidationError("bad"), 2, "validation error"),
            (PreconditionError("bad"), 2, "validation error"),
            (CertificationError("bad"), 3, "certification failure"),
            (ConstructionError("bad"), 3, "certification failure"),
            (CapacityError("bad"), 3, "certification failure"),
            (OracleFailure("bad"), 4, "oracle failure"),
            (OracleRefusal("bad"), 4, "oracle failure"),
        ],
    )
    def test_recipe_errors_keep_exit_codes(self, tmp_path, capsys, monkeypatch, exc, code, label):
        def broken():
            raise exc

        monkeypatch.setitem(ACCEPTANCE_BY_NAME, "AC8-resonance-limit", broken)
        rc = main(["recipes", "--run", "AC8-resonance-limit", "--out", str(tmp_path / "acc")])
        assert rc == code
        assert f"{label}: bad" in capsys.readouterr().err

    def test_recipes_all_runs_past_a_failure(self, tmp_path, capsys, monkeypatch):
        cheap = ACCEPTANCE_BY_NAME["AC1-root-correctness"]
        for name in ACCEPTANCE_BY_NAME:
            monkeypatch.setitem(ACCEPTANCE_BY_NAME, name, cheap)

        def broken(exc):
            def recipe():
                raise exc

            return recipe

        monkeypatch.setitem(ACCEPTANCE_BY_NAME, "AC3-oracle-equivalence", broken(OracleFailure("bad")))
        monkeypatch.setitem(ACCEPTANCE_BY_NAME, "AC5-derivative-gap", broken(ConstructionError("worse")))
        assert main(["recipes", "--all", "--out", str(tmp_path / "all")]) == 4
        err = capsys.readouterr().err
        assert "oracle failure: bad" in err and "certification failure: worse" in err
        assert (tmp_path / "all" / "AC9-counterexample-certificates" / "manifest.txt").exists()

    def test_capacity_failure_exits_certification(self, tmp_path, capsys):
        cfg = tmp_path / "ce.cfg"
        cfg.write_text(
            "[experiment]\nkind = counterexample\n\n[damping]\nsigma = 2.0\n\n"
            "[spectrum]\nmodes = 16\n\n[counterexample]\nstatement = 4\nn_max = 4\n"
        )
        rc = main(["counterexample", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "certification failure" in capsys.readouterr().err


def test_write_csv_is_ascii_lf(tmp_path):
    path = write_csv(tmp_path / "x.csv", ["a", "b"], [(1.5, "x"), (2.0, "y")])
    raw = open(path, "rb").read()
    assert b"\r" not in raw
    assert raw.decode("ascii") == "a,b\n1.5,x\n2.0,y\n"


def test_dependency_floors_cover_the_apis_used():
    # oracle.py needs numpy >= 2.0 and probe.py scipy >= 1.12 (pyproject.toml)
    from scipy.integrate import cumulative_simpson

    assert callable(np.trapezoid) and callable(cumulative_simpson)
