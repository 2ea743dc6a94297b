import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from patrolkit import io, planner
from patrolkit.cli import main
from patrolkit.config import ConfigError, load_config
from patrolkit.grid import assemble_dataset
from patrolkit.iware import train_iware


def run(args):
    return main(args)


def write_fieldtest(path):
    path.write_text(
        "group,obs_cells,patrolled_cells,effort_km\n"
        "High,23,54,269.0\nMedium,12,55,115.3\nLow,3,23,57.7\n")


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


SMALL = [
    "--simulate.preset=oneside-noise-small",
    "--ensemble.num_thresholds=3",
    "--ensemble.num_trees=6",
    "--planner.T=4",
    "--planner.K=1",
    "--riskmap.segments=6",
    "--seed=4",
]


class TestConfig:
    def test_file_plus_overrides(self, workdir):
        cfg_file = workdir / "run.conf"
        cfg_file.write_text("seed = 9\nensemble.num_thresholds = 7  # comment\n")
        cfg = load_config(cfg_file, ["--ensemble.learner=gp"])
        assert cfg["seed"] == 9
        assert cfg["ensemble"]["num_thresholds"] == 7
        assert cfg["ensemble"]["learner"] == "gp"

    def test_unknown_key_rejected(self, workdir):
        with pytest.raises(ConfigError):
            load_config(None, ["--no.such.key=1"])

    def test_planner_solver_key_is_gone(self, workdir, capsys):
        # the solver is not a setting: branch and bound runs every plan
        assert run(["plan", "--planner.solver=bnb", "--output_dir=r"]) == 2
        assert "unknown configuration key 'planner.solver'" in capsys.readouterr().err

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent.conf", [])

    @pytest.mark.parametrize("override, message", [
        ("--ensemble=5", "section 'ensemble' cannot be set"),
        ("--planner.T=[1]", "'planner.T' takes a number, not '[1]'"),
        ("--planner.T=true", "'planner.T' takes a number, not 'true'"),
        ("--ensemble.num_thresholds=null", "takes a number, not 'null'"),
        ("--planner.beta_grid=5", "'planner.beta_grid' takes a list"),
        ("--riskmap.levels=0.5", "takes a list"),
        ("--ensemble.gp_lengthscale=wide", "takes a number or null, not 'wide'"),
        ("--ensemble.gp_lengthscale=false", "takes a number or null"),
        # fractions of integer keys were truncated: --planner.T=2.5 planned at T=2
        ("--planner.T=2.5", "'planner.T' takes an integer, not '2.5'"),
        ("--planner.K=1.5", "'planner.K' takes an integer"),
        ("--ensemble.num_trees=2.5", "'ensemble.num_trees' takes an integer"),
        ("--seed=7.5", "'seed' takes an integer"),
        ("--planner.post=NaN", "'planner.post' takes an integer"),
    ])
    def test_value_of_the_wrong_kind_rejected(self, override, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(None, [override])

    def test_wrong_kind_is_an_input_error(self, workdir, capsys):
        # on a simulated park these ended in a TypeError traceback: a
        # section replaced by a number, and a number where a list is iterated
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        assert run(["train", *SMALL, "--ensemble=5", "--output_dir=r"]) == 2
        assert run(["plan", "--beta-sweep", "--planner.beta_grid=5", "--output_dir=r"]) == 2
        err = capsys.readouterr().err
        assert "cannot be set to a value" in err and "takes a list" in err
        (workdir / "run.conf").write_text("planner.T = true\n")
        with pytest.raises(ConfigError, match="takes a number"):
            load_config(workdir / "run.conf", [])

    def test_integer_key_keeps_an_integral_number_as_an_int(self, workdir, capsys):
        cfg = load_config(None, ["--planner.T=6.0", "--seed=7", "--riskmap.c_max=2"])
        assert cfg["planner"]["T"] == 6 and type(cfg["planner"]["T"]) is int
        assert type(cfg["seed"]) is int and cfg["riskmap"]["c_max"] == 2
        assert run(["plan", "--planner.K=1.5", "--output_dir=r"]) == 2
        assert "'planner.K' takes an integer, not '1.5'" in capsys.readouterr().err

    def test_kind_read_from_defaults_not_from_the_file(self, workdir):
        # a file value does not narrow what an override may set
        (workdir / "run.conf").write_text("riskmap.c_max = 2\nensemble.gp_lengthscale = 0.7\n")
        cfg = load_config(workdir / "run.conf", ["--riskmap.c_max=2.5",
                                                 "--ensemble.gp_lengthscale=null"])
        assert cfg["riskmap"]["c_max"] == 2.5 and cfg["ensemble"]["gp_lengthscale"] is None

    def test_values_of_the_default_kind_kept(self):
        cfg = load_config(None, ["--simulate.preset=2019", "--output_dir=null",
                                 '--ensemble.learner="gp"', "--train.dataset=[d].csv",
                                 "--ensemble.gp_lengthscale=null", "--planner.T=8",
                                 "--riskmap.c_max=2.5", "--planner.beta_grid=[0.0,1]"])
        # text that is no JSON string stays a string where the default is one
        assert cfg["simulate"]["preset"] == "2019" and cfg["output_dir"] == "null"
        assert cfg["ensemble"]["learner"] == "gp" and cfg["train"]["dataset"] == "[d].csv"
        assert cfg["ensemble"]["gp_lengthscale"] is None and cfg["planner"]["T"] == 8
        assert cfg["riskmap"]["c_max"] == 2.5 and cfg["planner"]["beta_grid"] == [0.0, 1]
        assert load_config(None, ["--ensemble.gp_lengthscale=0.7"])["ensemble"][
            "gp_lengthscale"] == 0.7


class TestPipeline:
    def test_full_pipeline_exit_codes(self, workdir, monkeypatch):
        out = ["--output_dir=run"]
        assert run(["simulate", *SMALL, *out]) == 0
        assert run(["train", *SMALL, *out]) == 0
        assert run(["riskmap", *SMALL, *out]) == 0
        assert run(["plan", *SMALL, *out]) == 0
        assert run(["plan", "--beta-sweep", *SMALL, *out,
                    "--planner.beta_grid=[0.0,0.5]"]) == 0
        assert run(["evaluate", *SMALL, *out]) == 0
        for name in ("cells.csv", "dataset.csv", "truth.json", "model.json",
                     "metrics.json", "riskmap.csv", "plan.json", "beta_sweep.csv"):
            assert (workdir / "run" / name).exists(), name

        plan = json.loads((workdir / "run" / "plan.json").read_text())
        assert abs(sum(r["weight"] for r in plan["routes"]) - 1.0) < 1e-9
        sweep = (workdir / "run" / "beta_sweep.csv").read_text().splitlines()
        assert sweep[0] == "beta,ratio"
        assert sweep[1].startswith("0.0,1.0")

        # plan imports the planner when it runs, and maps its errors there
        def fail(error):
            def solve(problem):
                raise error("no feasible patrol plan")
            return solve

        monkeypatch.setattr(planner, "solve", fail(planner.PlanInfeasibleError))
        assert run(["plan", *SMALL, *out]) == 3
        monkeypatch.setattr(planner, "solve", fail(planner.PlannerError))
        assert run(["plan", *SMALL, *out]) == 2

    def test_model_written_compact_and_indented_model_loads(self, workdir):
        out = ["--output_dir=run"]
        assert run(["simulate", *SMALL, *out]) == 0
        assert run(["train", *SMALL, *out]) == 0
        assert run(["riskmap", *SMALL, *out]) == 0
        path, risk = workdir / "run" / "model.json", workdir / "run" / "riskmap.csv"
        compact, first = path.read_text(), risk.read_bytes()
        assert compact.count("\n") == 1 and ": " not in compact
        # a model file written indented, as before, loads to the same model
        path.write_text(json.dumps(json.loads(compact), indent=2, sort_keys=True) + "\n")
        assert run(["riskmap", *SMALL, *out]) == 0
        assert risk.read_bytes() == first

    def test_missing_output_dir_parent_is_config_error(self, workdir):
        assert run(["simulate", *SMALL, "--output_dir=gone/deeper/run"]) == 2

    def test_single_window_dataset_rejected(self, workdir):
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        # rewrite the dataset keeping only window 0
        ds = (workdir / "r" / "dataset.csv").read_text().splitlines()
        keep = [ds[0]] + [line for line in ds[1:] if line.startswith("0,")]
        (workdir / "r" / "dataset.csv").write_text("\n".join(keep) + "\n")
        assert run(["train", *SMALL, "--output_dir=r"]) == 2

    def test_missing_model_is_input_error(self, workdir):
        assert run(["simulate", *SMALL, "--output_dir=r2"]) == 0
        assert run(["riskmap", *SMALL, "--output_dir=r2"]) == 2

    def test_unknown_preset_is_config_error(self, workdir):
        assert run(["simulate", "--simulate.preset=bogus", "--output_dir=r3"]) == 2

    def test_fieldtest_reproduces_paper_p(self, workdir):
        write_fieldtest(workdir / "ft.csv")
        assert run(["fieldtest", "--fieldtest.table=ft.csv", "--output_dir=o"]) == 0
        report = json.loads((workdir / "o" / "fieldtest_report.json").read_text())
        assert abs(report["p_value"] - 1.05e-2) <= 0.02e-2
        assert report["dof"] == 2

    def test_ingest_pipeline(self, workdir):
        cells = ("cell_id,x,y,mask,is_post,f_1\n"
                 "0,0,0,1,1,0.5\n1,1,0,1,0,0.25\n")
        (workdir / "cells.csv").write_text(cells)
        (workdir / "waypoints.csv").write_text(
            "patrol_id,x_km,y_km,timestamp_iso8601\n"
            "p1,0.25,0.5,2017-01-05T00:00:00\n"
            "p1,1.75,0.5,2017-01-05T01:00:00\n")
        (workdir / "observations.csv").write_text(
            "x_km,y_km,timestamp_iso8601,category\n"
            "0.5,0.5,2017-01-06T00:00:00,poaching\n"
            "1.5,0.5,2017-01-06T00:00:00,non_poaching\n")
        code = run(["ingest", "--output_dir=ing",
                    '--ingest.windows=["2017-01-01T00:00:00,2017-04-01T00:00:00"]'])
        assert code == 0
        lines = (workdir / "ing" / "dataset.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 cells x 1 window
        # cell 0: 0.75 km, label 1; cell 1: 0.75 km, label 0
        row0 = lines[1].split(",")
        assert float(row0[2]) == pytest.approx(0.75)
        assert row0[3] == "1"


class TestMalformedInputs:
    """A file missing a column or key the format requires is an input error."""

    def test_fieldtest_without_group(self, workdir):
        (workdir / "ft.csv").write_text("obs_cells,patrolled_cells,effort_km\n23,54,269.0\n")
        assert run(["fieldtest", "--fieldtest.table=ft.csv", "--output_dir=o"]) == 2

    def test_dataset_without_label(self, workdir):
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        path = workdir / "r" / "dataset.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        path.write_text("".join(",".join(r[:3] + r[4:]) + "\n" for r in rows))
        assert run(["train", *SMALL, "--output_dir=r"]) == 2

    @pytest.mark.parametrize("edit", [
        "cell_id_past_grid", "negative_cell_id", "truncated", "negative_t", "duplicate_row"])
    def test_dataset_rows_not_one_per_window_and_cell(self, workdir, edit):
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        path = workdir / "r" / "dataset.csv"
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        if edit == "cell_id_past_grid":
            rows[0][1] = "1000000"
        elif edit == "negative_cell_id":
            rows[0][1] = "-1"
        elif edit == "truncated":
            rows = rows[:-1]  # the last window lost its last cell
        elif edit == "negative_t":
            rows[0][0] = "-1"
        else:
            rows.append(rows[0])
        path.write_text("".join(",".join(r) + "\n" for r in [header, *rows]))
        assert run(["train", *SMALL, "--output_dir=r"]) == 2

    def test_cells_with_duplicate_id(self, workdir):
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        path = workdir / "r" / "cells.csv"
        lines = path.read_text().splitlines()
        lines[1 + 7] = lines[1 + 6]  # cell 7's row is a copy of cell 6's
        path.write_text("\n".join(lines) + "\n")
        assert run(["train", *SMALL, "--output_dir=r"]) == 2

    def test_waypoints_without_x(self, workdir):
        (workdir / "cells.csv").write_text("cell_id,x,y,mask,is_post,f_1\n0,0,0,1,1,0.5\n")
        (workdir / "waypoints.csv").write_text(
            "patrol_id,y_km,timestamp_iso8601\np1,0.5,2017-01-05T00:00:00\n")
        (workdir / "observations.csv").write_text("x_km,y_km,timestamp_iso8601,category\n")
        assert run(["ingest", "--output_dir=ing",
                    '--ingest.windows=["2017-01-01T00:00:00,2017-04-01T00:00:00"]']) == 2

    @pytest.mark.parametrize("setting, name", [
        (["--ensemble.undersample_ratio=-1"], "undersample_ratio"),
        (["--ensemble.undersample_ratio=0"], "undersample_ratio"),
        (["--ensemble.learner=gp", "--ensemble.gp_signal_var=0"], "signal_var"),
        (["--ensemble.learner=gp", "--ensemble.gp_jitter=-1"], "jitter"),
    ])
    def test_unusable_learner_setting(self, workdir, capsys, setting, name):
        # before, each trained with exit 0: one negative per tree, a
        # constant GP, or a negative jitter escalated from
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        capsys.readouterr()
        assert run(["train", *SMALL, "--output_dir=r", *setting]) == 2
        assert name in capsys.readouterr().err

    def test_model_with_version_only(self, workdir):
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        (workdir / "r" / "model.json").write_text('{"version": 1}\n')
        assert run(["riskmap", *SMALL, "--output_dir=r"]) == 2

    def test_model_not_an_object(self, workdir):
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        (workdir / "r" / "model.json").write_text("[1, 2]\n")
        assert run(["riskmap", *SMALL, "--output_dir=r"]) == 2

    def test_model_with_null_learners(self, workdir):
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        doc = {"version": 1, "thresholds": [0.0], "learners": None, "weights": [1.0],
               "learner_kind": "trees", "squash_scale": 1.0, "n_features": 3}
        (workdir / "r" / "model.json").write_text(json.dumps(doc) + "\n")
        assert run(["riskmap", *SMALL, "--output_dir=r"]) == 2

    @pytest.mark.parametrize("key", ["thresholds", "n_features"])
    def test_model_with_null_field(self, workdir, key):
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        assert run(["train", *SMALL, "--output_dir=r"]) == 0
        path = workdir / "r" / "model.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, key: None}) + "\n")
        assert run(["riskmap", *SMALL, "--output_dir=r"]) == 2

    @pytest.mark.parametrize("key, index, value", [
        ("thresholds", 1, float("nan")),
        ("weights", 0, float("nan")),
        ("squash_scale", None, 0.0),
        ("squash_scale", None, -1.0),
        ("squash_scale", None, float("inf")),
    ])
    def test_model_with_unusable_number(self, workdir, capsys, key, index, value):
        # before, riskmap wrote negative or NaN var values, or a NaN weight
        # became a uniform mixture, all with exit 0
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        assert run(["train", *SMALL, "--output_dir=r"]) == 0
        path = workdir / "r" / "model.json"
        doc = json.loads(path.read_text())
        if index is None:
            doc[key] = value
        else:
            doc[key][index] = value
        path.write_text(json.dumps(doc) + "\n")
        capsys.readouterr()
        assert run(["riskmap", *SMALL, "--output_dir=r"]) == 2
        assert key in capsys.readouterr().err

    def test_model_with_membership_past_the_training_rows(self, workdir, capsys):
        # before, the IndexError ended in a traceback with exit code 1
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        assert run(["train", *SMALL, "--output_dir=r"]) == 0
        path = workdir / "r" / "model.json"
        doc = json.loads(path.read_text())
        doc["learners"][0]["memberships"][0][0] = [10**6, 1]
        path.write_text(json.dumps(doc) + "\n")
        capsys.readouterr()
        assert run(["riskmap", *SMALL, "--output_dir=r"]) == 2
        assert "malformed field" in capsys.readouterr().err

    def test_riskmap_nan_effort_level(self, workdir, capsys):
        # before, riskmap wrote rows at effort level nan with exit 0
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        assert run(["train", *SMALL, "--output_dir=r"]) == 0
        capsys.readouterr()
        assert run(["riskmap", *SMALL, "--output_dir=r", "--riskmap.levels=[0.5,NaN]"]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (workdir / "r" / "riskmap.csv").exists()
        assert not (workdir / "r" / "blocks.json").exists()


@pytest.mark.parametrize("kind", ["trees", "gp"])
def test_cli_defaults_are_library_defaults(workdir, kind):
    """With no learner keys set, train fits what train_iware fits with no
    learner options: the config's values are the learners' defaults."""
    args = ["--simulate.preset=oneside-noise-small", "--seed=3", "--output_dir=r"]
    assert run(["simulate", *args]) == 0
    assert run(["train", *args, f"--ensemble.learner={kind}",
                "--ensemble.num_thresholds=2", "--ensemble.folds=2"]) == 0
    grid = io.read_cells_csv(workdir / "r" / "cells.csv")
    ds = io.read_dataset_csv(workdir / "r" / "dataset.csv", grid)
    T = ds.num_timesteps
    train_ds = assemble_dataset(grid, ds.effort[: T - 1], ds.labels[: T - 1])
    ens = train_iware(train_ds, I=2, rng=3, learner_kind=kind)
    assert json.loads((workdir / "r" / "model.json").read_text()) == ens.to_dict()


def scipy_loaded(code: str) -> set[str]:
    """The scipy modules a fresh process holds after running ``code``."""
    code += ("\nimport json, sys\n"
             "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


def command_code(*argv: str) -> str:
    return f"from patrolkit.cli import main\nassert main({list(argv)!r}) == 0"


def test_cli_import_loads_no_scipy():
    assert scipy_loaded("import patrolkit.cli") == set()


def test_data_modules_import_without_scipy():
    # the package root re-exports nothing, so these load numpy alone
    assert scipy_loaded("import patrolkit.grid, patrolkit.io, patrolkit.synth") == set()


def test_planner_import_loads_highs():
    # its node LPs run on scipy's HiGHS binding, loaded with the module
    assert "scipy.optimize._highspy" in scipy_loaded("from patrolkit import planner")


def test_tree_commands_load_no_scipy(workdir):
    assert scipy_loaded(command_code("simulate", *SMALL, "--output_dir=r")) == set()
    assert run(["train", *SMALL, "--output_dir=r"]) == 0
    for command in ("riskmap", "evaluate"):
        assert scipy_loaded(command_code(command, *SMALL, "--output_dir=r")) == set(), command


def test_gp_riskmap_loads_linalg_not_optimize(workdir):
    gp = [*SMALL, "--ensemble.learner=gp", "--output_dir=r"]
    assert run(["simulate", *gp]) == 0
    assert run(["train", *gp]) == 0
    loaded = scipy_loaded(command_code("riskmap", *gp))
    assert "scipy.linalg" in loaded and "scipy.optimize" not in loaded


class TestDeterminism:
    def test_simulate_byte_identical(self, workdir):
        assert run(["simulate", *SMALL, "--output_dir=a"]) == 0
        assert run(["simulate", *SMALL, "--output_dir=b"]) == 0
        for name in ("cells.csv", "dataset.csv", "truth.json"):
            assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes()

    def test_fieldtest_byte_identical(self, workdir):
        write_fieldtest(workdir / "ft.csv")
        run(["fieldtest", "--fieldtest.table=ft.csv", "--output_dir=fa"])
        run(["fieldtest", "--fieldtest.table=ft.csv", "--output_dir=fb"])
        assert ((workdir / "fa" / "fieldtest_report.json").read_bytes()
                == (workdir / "fb" / "fieldtest_report.json").read_bytes())
