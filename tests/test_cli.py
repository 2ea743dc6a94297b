import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from patrolkit import io
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


class TestPipeline:
    def test_full_pipeline_exit_codes(self, workdir):
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


def test_cli_import_leaves_out_scipy_stats():
    code = "import sys, patrolkit.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


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
