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
from patrolkit.learners import BaggedClassifier, GpClassifier


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

    def test_no_blocks_left_from_an_earlier_run(self, workdir):
        # before, a riskmap run that could select no blocks left the earlier
        # run's blocks.json beside its new riskmap.csv
        out = ["--output_dir=run"]
        assert run(["simulate", *SMALL, *out]) == 0
        assert run(["train", *SMALL, *out]) == 0
        assert run(["riskmap", *SMALL, *out]) == 0
        assert (workdir / "run" / "blocks.json").exists()
        assert run(["riskmap", *SMALL, *out, "--riskmap.block_size=13"]) == 0  # the park is 12x12
        assert (workdir / "run" / "riskmap.csv").exists()
        assert not (workdir / "run" / "blocks.json").exists()

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

    @pytest.mark.parametrize("edit, message", [
        pytest.param("prev_effort_km", "t=1, cell_id=0: prev_effort_km is 123.0, expected ",
                     id="prev_effort_km"),
        pytest.param("f_1", "t=1, cell_id=0: f_1 is 9.0, expected ", id="f_1"),
        pytest.param("cells_of_another_seed", "t=0, cell_id=0: f_1 is ", id="cells_of_another_seed"),
    ])
    def test_dataset_columns_that_contradict_the_park(self, workdir, capsys, edit, message):
        """The previous effort and the features in dataset.csv must be those
        that its effort_km and cells.csv give."""
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        args = ["train", *SMALL, "--output_dir=r"]
        if edit == "cells_of_another_seed":
            # same grid shape and feature names, other features
            assert run(["simulate", *SMALL, "--seed=5", "--output_dir=s"]) == 0
            args.append("--train.cells=s/cells.csv")
        else:
            path = workdir / "r" / "dataset.csv"
            header, *rows = [line.split(",") for line in path.read_text().splitlines()]
            row = next(r for r in rows if r[:2] == ["1", "0"])
            row[header.index(edit)] = "123.0" if edit == "prev_effort_km" else "9.0"
            path.write_text("".join(",".join(r) + "\n" for r in [header, *rows]))
        capsys.readouterr()
        assert run(args) == 2
        assert message in capsys.readouterr().err
        assert not (workdir / "r" / "model.json").exists()

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

    @pytest.mark.parametrize("setting", [
        "num_trees=2.5", "max_depth=0", "max_depth=-3", "min_leaf=0", "min_leaf=-1",
        "gp_max_points=1", "gp_max_points=-5", "gp_max_points=3"])
    def test_unusable_integer_learner_setting(self, workdir, capsys, setting):
        # the learner checks its own integers: before, max_depth <= 0 grew
        # single-leaf trees, min_leaf <= 0 fit as min_leaf 1, and a GP capped
        # at 3 points or fewer fit positive rows alone, each with exit 0
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        capsys.readouterr()
        learner = "gp" if setting.startswith("gp_") else "trees"
        assert run(["train", *SMALL, "--output_dir=r", f"--ensemble.learner={learner}",
                    f"--ensemble.{setting}"]) == 2
        assert setting.split("=")[0].removeprefix("gp_") in capsys.readouterr().err
        assert not (workdir / "r" / "model.json").exists()

    def test_gp_whose_cap_the_positives_fill(self, workdir, capsys):
        # the park modelled on MFNP has more positive training rows than the
        # default cap of 400 points; before, every GP fit positive rows alone
        # and the held-out window called every cell positive, with exit 0
        args = ["--simulate.preset=mfnp-like", "--seed=1", "--output_dir=r"]
        assert run(["simulate", *args]) == 0
        capsys.readouterr()
        assert run(["train", *args, "--ensemble.learner=gp", "--ensemble.num_thresholds=4"]) == 2
        err = capsys.readouterr().err
        assert "773 of the 773 rows" in err and "max_points=400" in err
        assert not (workdir / "r" / "model.json").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("threshold", ["2", "-1", "NaN", "1.0000001"])
    def test_metrics_threshold_outside_unit_interval(self, workdir, capsys, command, threshold):
        # before, each wrote a metrics.json with exit 0: precision null and
        # recall 0 above 1, every cell called positive below 0
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        if command == "evaluate":
            assert run(["train", *SMALL, "--output_dir=r"]) == 0
            (workdir / "r" / "metrics.json").unlink()
        capsys.readouterr()
        assert run([command, *SMALL, "--output_dir=r", f"--metrics.threshold={threshold}"]) == 2
        assert "metrics.threshold" in capsys.readouterr().err
        assert not (workdir / "r" / "metrics.json").exists()
        assert (workdir / "r" / "model.json").exists() == (command == "evaluate")

    def test_model_with_version_only(self, workdir):
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        (workdir / "r" / "model.json").write_text('{"version": 3}\n')
        assert run(["riskmap", *SMALL, "--output_dir=r"]) == 2

    def test_model_of_version_one(self, workdir, capsys):
        # version 1 stored a list of per-tree tables, each with a right
        # array; version 2 stored each bag's draw counts
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        assert run(["train", *SMALL, "--output_dir=r"]) == 0
        path = workdir / "r" / "model.json"
        doc = json.loads(path.read_text())
        for version in (1, 2):
            path.write_text(json.dumps({**doc, "version": version}) + "\n")
            capsys.readouterr()
            assert run(["riskmap", *SMALL, "--output_dir=r"]) == 2
            assert f"unsupported ensemble document version {version}" in capsys.readouterr().err

    def test_model_not_an_object(self, workdir):
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        (workdir / "r" / "model.json").write_text("[1, 2]\n")
        assert run(["riskmap", *SMALL, "--output_dir=r"]) == 2

    def test_model_with_null_learners(self, workdir):
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        doc = {"version": 3, "thresholds": [0.0], "learners": None, "weights": [1.0],
               "learner_kind": "trees", "squash_scale": 1.0, "n_features": 3}
        (workdir / "r" / "model.json").write_text(json.dumps(doc) + "\n")
        assert run(["riskmap", *SMALL, "--output_dir=r"]) == 2

    @pytest.mark.parametrize("learner, kind, message", [
        ("trees", 5, "unknown learner kind 5"),
        ("trees", "svm", "unknown learner kind 'svm'"),
        ("trees", None, "unknown learner kind None"),
        ("trees", "gp", "every learner of a 'gp' ensemble must be of kind 'gp'"),
        ("gp", "trees", "every learner of a 'trees' ensemble must be of kind 'bagged_trees'"),
    ])
    def test_model_with_unusable_learner_kind(self, workdir, capsys, learner, kind, message):
        # before, each loaded, and riskmap exited 0
        args = [*SMALL, f"--ensemble.learner={learner}", "--output_dir=r"]
        assert run(["simulate", *args]) == 0
        assert run(["train", *args]) == 0
        path = workdir / "r" / "model.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "learner_kind": kind}) + "\n")
        capsys.readouterr()
        assert run(["riskmap", *args]) == 2
        assert message in capsys.readouterr().err
        assert not (workdir / "r" / "riskmap.csv").exists()

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

    @pytest.mark.parametrize("edit", ["non_square_gram", "nan_gram_entry", "inf_gram_entry",
                                      "negative_draw_var_sum", "nan_draw_var_sum"])
    def test_model_with_unusable_draw_statistics(self, workdir, capsys, edit):
        # the IJ variance reads a bag's Gram as B x B and its summed variance
        # as a number >= 0
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        assert run(["train", *SMALL, "--output_dir=r"]) == 0
        path = workdir / "r" / "model.json"
        doc = json.loads(path.read_text())
        bag = doc["learners"][0]
        if edit == "non_square_gram":
            bag["draw_gram"] = bag["draw_gram"][:-1]
        elif edit == "nan_gram_entry":
            bag["draw_gram"][0][1] = float("nan")
        elif edit == "inf_gram_entry":
            bag["draw_gram"][1][0] = float("inf")
        elif edit == "negative_draw_var_sum":
            bag["draw_var_sum"] = -1.0
        else:
            bag["draw_var_sum"] = float("nan")
        path.write_text(json.dumps(doc) + "\n")
        capsys.readouterr()
        assert run(["riskmap", *SMALL, "--output_dir=r"]) == 2
        assert "malformed field" in capsys.readouterr().err
        assert not (workdir / "r" / "riskmap.csv").exists()

    @pytest.mark.parametrize("field", ["left", "feature", "bag_n_features", "n_features"])
    def test_model_with_fractional_integer(self, workdir, capsys, field):
        # before, each was truncated toward zero and riskmap exited 0
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        assert run(["train", *SMALL, "--output_dir=r"]) == 0
        path = workdir / "r" / "model.json"
        doc = json.loads(path.read_text())
        bag = doc["learners"][0]
        assert bag["trees"]["feature"][0] >= 0
        if field in ("left", "feature"):
            bag["trees"][field][0] += 0.5
        elif field == "bag_n_features":
            bag["n_features"] += 0.9
        else:
            doc["n_features"] += 0.9
        path.write_text(json.dumps(doc) + "\n")
        capsys.readouterr()
        assert run(["riskmap", *SMALL, "--output_dir=r"]) == 2
        assert "malformed field" in capsys.readouterr().err
        assert not (workdir / "r" / "riskmap.csv").exists()

    @pytest.mark.parametrize("learner, field, value", [
        ("trees", "squash_scale", str),
        ("trees", "squash_scale", bool),
        ("trees", "weights", str),
        ("trees", "thresholds", str),
        ("trees", "draw_var_sum", str),
        ("trees", "draw_gram", str),
        ("trees", "threshold", str),
        ("trees", "value", str),
        ("gp", "lengthscale", str),
        ("gp", "f_mode", str),
    ])
    def test_model_with_number_not_a_number(self, workdir, capsys, learner, field, value):
        # before, a string was parsed as the number it spells and a bool
        # taken as 1, and riskmap exited 0 with the untouched model's output
        args = [*SMALL, f"--ensemble.learner={learner}", "--output_dir=r"]
        assert run(["simulate", *args]) == 0
        assert run(["train", *args]) == 0
        path = workdir / "r" / "model.json"
        doc = json.loads(path.read_text())
        learner0 = doc["learners"][0]
        blob = next(b for b in (doc, learner0, learner0.get("trees", {})) if field in b)
        if value is bool:
            blob[field] = True
        elif isinstance(blob[field], list):
            blob[field] = json.loads(json.dumps(blob[field]), parse_float=str, parse_int=str)
        else:
            blob[field] = str(blob[field])
        path.write_text(json.dumps(doc) + "\n")
        capsys.readouterr()
        assert run(["riskmap", *args]) == 2
        err = capsys.readouterr().err
        assert "malformed field" in err and field in err
        assert not (workdir / "r" / "riskmap.csv").exists()

    @pytest.mark.parametrize("learner, field", [
        ("trees", "threshold"),
        ("trees", "feature"),
        ("trees", "left"),
        ("trees", "draw_gram"),
        ("gp", "X"),
    ])
    def test_model_with_a_bool_among_numbers(self, workdir, capsys, learner, field):
        # before, numpy gave a list that mixes a bool and numbers a numeric
        # dtype, the true was read as 1, and riskmap exited 0
        args = [*SMALL, f"--ensemble.learner={learner}", "--output_dir=r"]
        assert run(["simulate", *args]) == 0
        assert run(["train", *args]) == 0
        path = workdir / "r" / "model.json"
        doc = json.loads(path.read_text())
        learner0 = doc["learners"][0]
        blob = learner0 if field in learner0 else learner0["trees"]
        if learner == "trees":
            assert learner0["trees"]["feature"][0] >= 0  # the first entry is an inner node
        values = blob[field]
        (values[0] if isinstance(values[0], list) else values)[0] = True
        path.write_text(json.dumps(doc) + "\n")
        capsys.readouterr()
        assert run(["riskmap", *args]) == 2
        err = capsys.readouterr().err
        assert "malformed field" in err and field in err
        assert not (workdir / "r" / "riskmap.csv").exists()

    @pytest.mark.parametrize("field, value", [
        ("y_sign", 0.5),
        ("y_sign", 3),
        ("lengthscale", "negated"),
        ("lengthscale", 0.0),
        ("signal_var", -1.0),
        ("jitter", float("nan")),
        ("jitter", -1e-3),
        ("X", "one row short"),
        ("X", "a NaN entry"),
        ("X", "its last column dropped"),
    ])
    def test_gp_model_with_unusable_field(self, workdir, capsys, field, value):
        # before, a y_sign of 0.5 or 3, a negated lengthscale and an X with a
        # NaN or a column fewer than n_features gave exit 0; a lengthscale of
        # 0 and a NaN jitter exited 2 only through the triangular solve's
        # finiteness check, a negative signal_var or jitter through a
        # Cholesky failure
        args = [*SMALL, "--ensemble.learner=gp", "--output_dir=r"]
        assert run(["simulate", *args]) == 0
        assert run(["train", *args]) == 0
        path = workdir / "r" / "model.json"
        doc = json.loads(path.read_text())
        gp = doc["learners"][0]
        if field == "y_sign":
            gp["y_sign"][0] = value
        elif value == "negated":
            gp["lengthscale"] = -gp["lengthscale"]
        elif value == "one row short":
            gp["X"] = gp["X"][:-1]
        elif value == "a NaN entry":
            gp["X"][1][0] = float("nan")
        elif value == "its last column dropped":
            gp["X"] = [row[:-1] for row in gp["X"]]
        else:
            gp[field] = value
        path.write_text(json.dumps(doc) + "\n")
        capsys.readouterr()
        assert run(["riskmap", *args]) == 2
        err = capsys.readouterr().err
        assert "malformed field" in err and field in err
        assert not (workdir / "r" / "riskmap.csv").exists()

    def test_bag_model_of_another_width(self, workdir, capsys):
        # before, riskmap exited 0 from the stored outputs of the query rows
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        assert run(["train", *SMALL, "--output_dir=r"]) == 0
        path = workdir / "r" / "model.json"
        doc = json.loads(path.read_text())
        doc["learners"][1]["n_features"] += 1
        path.write_text(json.dumps(doc) + "\n")
        capsys.readouterr()
        assert run(["riskmap", *SMALL, "--output_dir=r"]) == 2
        err = capsys.readouterr().err
        assert "malformed field" in err and "n_features" in err
        assert not (workdir / "r" / "riskmap.csv").exists()

    @pytest.mark.parametrize("learner", ["trees", "gp"])
    def test_rows_of_another_width(self, workdir, capsys, learner):
        # before, the GP's riskmap and evaluate ended in a BLAS error, exit 1
        args = [*SMALL, f"--ensemble.learner={learner}", "--output_dir=r"]
        assert run(["simulate", *args]) == 0
        assert run(["train", *args]) == 0
        assert run(["simulate", *args, "--simulate.preset=oneside-noise", "--output_dir=wide"]) == 0
        for name in ("cells.csv", "dataset.csv"):
            (workdir / "r" / name).write_bytes((workdir / "wide" / name).read_bytes())
        for command in ("riskmap", "evaluate"):
            capsys.readouterr()
            assert run([command, *args]) == 2, command
            assert "expected 6 features, got 7" in capsys.readouterr().err, command
        assert not (workdir / "r" / "riskmap.csv").exists()

    def test_model_with_self_looping_tree(self, workdir, capsys):
        # before, riskmap never finished: the root's walk stayed at the root
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        assert run(["train", *SMALL, "--output_dir=r"]) == 0
        path = workdir / "r" / "model.json"
        doc = json.loads(path.read_text())
        trees = doc["learners"][0]["trees"]
        assert trees["feature"][0] >= 0
        trees["left"][0] = 0
        path.write_text(json.dumps(doc) + "\n")
        capsys.readouterr()
        assert run(["riskmap", *SMALL, "--output_dir=r"]) == 2
        assert "children must come after it" in capsys.readouterr().err
        assert not (workdir / "r" / "riskmap.csv").exists()

    @pytest.mark.parametrize("setting", ["block_size=0", "block_size=-1",
                                         "blocks_per_band=0", "blocks_per_band=-2"])
    def test_riskmap_unusable_block_setting(self, workdir, capsys, setting):
        # before, block_size=0 selected nothing with two numpy RuntimeWarnings,
        # and blocks_per_band=-2 kept all but two blocks of each band, both
        # with exit 0
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        assert run(["train", *SMALL, "--output_dir=r"]) == 0
        capsys.readouterr()
        assert run(["riskmap", *SMALL, "--output_dir=r", f"--riskmap.{setting}"]) == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not (workdir / "r" / "riskmap.csv").exists()
        assert not (workdir / "r" / "blocks.json").exists()

    @pytest.mark.parametrize("c_max", ["Infinity", "NaN"])
    def test_plan_with_non_finite_c_max(self, workdir, capsys, c_max):
        # before, both exited 2 blaming the effort levels, and Infinity
        # printed a numpy RuntimeWarning first
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        assert run(["train", *SMALL, "--output_dir=r"]) == 0
        capsys.readouterr()
        assert run(["plan", *SMALL, "--output_dir=r", f"--riskmap.c_max={c_max}"]) == 2
        assert "c_max must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "levels=[-1.0]", "levels=[-0.5,1.0]", "nominal_effort=-1", "nominal_effort=NaN",
        "nominal_effort=-Infinity", "nominal_effort=Infinity"])
    def test_riskmap_unusable_effort(self, workdir, capsys, setting):
        # before, a negative level gave prob and var 0 in every cell, and a
        # negative or NaN nominal effort was read as the default, with exit 0
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        assert run(["train", *SMALL, "--output_dir=r"]) == 0
        capsys.readouterr()
        assert run(["riskmap", *SMALL, "--output_dir=r", f"--riskmap.{setting}"]) == 2
        err = capsys.readouterr().err
        assert setting.split("=")[0] in err and ">= 0" in err
        assert not (workdir / "r" / "riskmap.csv").exists()
        assert not (workdir / "r" / "blocks.json").exists()

    def test_beta_sweep_over_an_empty_grid(self, workdir, capsys):
        # before, it solved beta = 0 for nothing and wrote a header-only
        # beta_sweep.csv, with exit 0
        assert run(["simulate", *SMALL, "--output_dir=r"]) == 0
        assert run(["train", *SMALL, "--output_dir=r"]) == 0
        capsys.readouterr()
        assert run(["plan", "--beta-sweep", *SMALL, "--output_dir=r",
                    "--planner.beta_grid=[]"]) == 2
        assert "beta grid must be nonempty" in capsys.readouterr().err
        assert not (workdir / "r" / "beta_sweep.csv").exists()

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
    ens.keep_query_outputs(ds.rows(ds.num_timesteps))
    assert json.loads((workdir / "r" / "model.json").read_text()) == ens.to_dict()


@pytest.mark.parametrize("kind, settings", [
    ("trees", ["--ensemble.num_trees=6.0", "--ensemble.max_depth=10.0",
               "--ensemble.min_leaf=1", "--ensemble.undersample_ratio=1"]),
    ("gp", ["--ensemble.gp_max_points=120.0", "--ensemble.gp_signal_var=1",
            "--ensemble.gp_jitter=0.000001"]),
])
def test_learner_settings_in_either_number_form(workdir, kind, settings):
    """The learner keys are passed on as given: an integer written 6.0 and a
    float written 1 fit what their other form, or the default, fits."""
    base = {"trees": [], "gp": ["--ensemble.gp_max_points=120"]}[kind]
    for out, extra in (("a", base), ("b", settings)):
        assert run(["simulate", *SMALL, f"--output_dir={out}"]) == 0
        assert run(["train", *SMALL, f"--output_dir={out}", f"--ensemble.learner={kind}",
                    "--ensemble.num_thresholds=2", *extra]) == 0
    assert (workdir / "a" / "model.json").read_bytes() == \
        (workdir / "b" / "model.json").read_bytes()


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


HIGHS = "scipy.optimize._highspy._core"


def highs_only(loaded: set[str]) -> bool:
    """Whether the scipy modules are HiGHS's extension and its submodules."""
    return HIGHS in loaded and all(m == HIGHS or m.startswith(HIGHS + ".") for m in loaded)


def test_planner_import_loads_highs():
    # its node LPs run on scipy's HiGHS binding, loaded with the module from
    # its file: before, the import ran scipy.optimize and scipy.sparse too
    loaded = scipy_loaded("from patrolkit import planner")
    assert highs_only(loaded), sorted(loaded)


def test_scipy_optimize_reuses_the_planners_highs():
    # a pybind11 extension must not be loaded twice: the later import of
    # scipy.optimize finds the planner's module under its own name
    code = """
import sys
import numpy as np
from patrolkit.planner.milp import highs_core
from scipy.optimize import LinearConstraint, linprog, milp
res = linprog([-1, -1], A_ub=[[1, 2]], b_ub=[4], bounds=(0, None), method="highs")
assert res.status == 0 and res.fun == -4.0, res
res = milp(c=[-1, -1], integrality=[1, 1], constraints=LinearConstraint([[2, 2]], -np.inf, 5))
assert res.status == 0 and res.fun == -2.0, res
assert sys.modules["scipy.optimize._highspy._core"] is highs_core
"""
    assert "scipy.optimize" in scipy_loaded(code)


def test_planner_falls_back_to_importing_highs(tmp_path):
    # where the extension's file is not found, the binding comes from a
    # plain import, with the rest of scipy.optimize
    code = f"""
import importlib.machinery, importlib.util
import numpy as np
find_spec = importlib.util.find_spec
def scipy_elsewhere(name, package=None):
    if name != "scipy":
        return find_spec(name, package)
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [{str(tmp_path)!r}]
    return spec
importlib.util.find_spec = scipy_elsewhere
from patrolkit import planner
from patrolkit.planner.milp import CscMatrix
# max x + y  s.t.  x + 2y + s = 4
A = CscMatrix(indptr=np.arange(4, dtype=np.int32), indices=np.zeros(3, dtype=np.int32),
              data=np.array([1.0, 2.0, 1.0]), shape=(1, 3))
x = planner.solve_lp(np.array([1.0, 1.0, 0.0]), A_eq=A, b_eq=np.array([4.0]))
assert x is not None and x[0] + x[1] == 4.0, x
"""
    assert "scipy.optimize" in scipy_loaded(code)


def test_tree_commands_load_no_scipy(workdir):
    assert scipy_loaded(command_code("simulate", *SMALL, "--output_dir=r")) == set()
    assert run(["train", *SMALL, "--output_dir=r"]) == 0
    for command in ("riskmap", "evaluate"):
        assert scipy_loaded(command_code(command, *SMALL, "--output_dir=r")) == set(), command
    # planning loads HiGHS's extension and nothing else of scipy
    for extra in ([], ["--beta-sweep"]):
        loaded = scipy_loaded(command_code("plan", *SMALL, "--output_dir=r", *extra))
        assert highs_only(loaded), (extra, sorted(loaded))


LAPACK = "scipy.linalg._flapack"
FBLAS = "scipy.linalg._fblas"


def test_gp_commands_load_lapack_and_highs_alone(workdir):
    # a GP's factors and triangular solves run on LAPACK's extension and its
    # matrix products on BLAS's, each loaded from its file: before,
    # prediction imported all of scipy.linalg, and then its products and
    # factors ran on numpy's BLAS. riskmap and plan take the GP's outputs
    # from model.json and load neither; before, each loaded LAPACK to
    # rebuild and run every GP
    gp = [*SMALL, "--ensemble.learner=gp", "--output_dir=r"]
    assert run(["simulate", *gp]) == 0
    assert run(["train", *gp]) == 0
    assert scipy_loaded(command_code("riskmap", *gp)) == set()
    assert scipy_loaded(command_code("evaluate", *gp)) == {LAPACK, FBLAS}
    for extra in ([], ["--beta-sweep"]):
        loaded = scipy_loaded(command_code("plan", *gp, *extra))
        assert highs_only(loaded), (extra, sorted(loaded))


def test_scipy_linalg_reuses_the_gps_lapack():
    # the later import of scipy.linalg finds the GP's modules under their own names
    code = """
import sys
import numpy as np
from patrolkit import learners
A = np.array([[4.0, 2.0], [2.0, 3.0]])
L = learners._cholesky(A)
b = np.array([1.0, 2.0])
x = learners._solve_lower(L, b)
y = learners._gemv(A, b)
assert {"scipy.linalg._flapack", "scipy.linalg._fblas"} <= set(sys.modules)
assert "scipy.linalg" not in sys.modules
import scipy.linalg
assert sys.modules["scipy.linalg._flapack"] is learners._lapack()
assert sys.modules["scipy.linalg._fblas"] is learners._blas()
assert scipy.linalg.lapack.dtrtrs is learners._lapack().dtrtrs
assert scipy.linalg.blas.dgemv is learners._blas().dgemv
assert np.array_equal(scipy.linalg.cholesky(A, lower=True), L)
assert np.array_equal(scipy.linalg.solve_triangular(L, b, lower=True), x)
assert np.array_equal(scipy.linalg.blas.dgemv(1.0, A, b), y)
"""
    assert "scipy.linalg" in scipy_loaded(code)


def test_gp_falls_back_to_importing_lapack(tmp_path):
    # where the extensions' files are not found, LAPACK's and BLAS's
    # bindings come from plain imports, with the rest of scipy.linalg; each
    # is loaded first once, so each falls back on its own
    for first in ("_lapack", "_blas"):
        code = f"""
import importlib.machinery, importlib.util, sys
import numpy as np
find_spec = importlib.util.find_spec
def scipy_elsewhere(name, package=None):
    if name != "scipy":
        return find_spec(name, package)
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [{str(tmp_path)!r}]
    return spec
importlib.util.find_spec = scipy_elsewhere
from patrolkit import learners
from patrolkit.learners import TrainMatrix, train_gp
learners.{first}()
assert "scipy.linalg" in sys.modules
X = np.array([[0.0], [1.0], [2.0], [3.0]])
data = TrainMatrix(rows=X, labels=np.array([False, False, True, True]))
prob, var = train_gp(data, lengthscale=1.0, rng=0).predict_proba(np.array([[0.0], [3.0]]))
assert prob[0] < 0.5 < prob[1] and np.all(var > 0), (prob, var)
import scipy.linalg
assert learners._lapack() is sys.modules["scipy.linalg._flapack"] is scipy.linalg._flapack
assert learners._blas() is sys.modules["scipy.linalg._fblas"] is scipy.linalg._fblas
"""
        assert {"scipy.linalg", LAPACK, FBLAS} <= scipy_loaded(code), first


LBFGSB = "scipy.optimize._lbfgsb"
DISTANCE = "scipy.spatial._distance_pybind"


@pytest.mark.parametrize("kind, extensions", [
    ("trees", {LBFGSB}),
    ("gp", {LBFGSB, DISTANCE, LAPACK, FBLAS}),
], ids=["trees", "gp"])
def test_train_loads_extensions_alone(workdir, kind, extensions):
    # the weight fit runs on L-BFGS-B's extension, the GP's lengthscale on
    # pdist's and its linear algebra on LAPACK's and BLAS's, each loaded from
    # its file: before, train imported all of scipy.optimize, and on a GP
    # scipy.spatial too
    args = [*SMALL, f"--ensemble.learner={kind}", "--output_dir=r"]
    assert run(["simulate", *args]) == 0
    assert scipy_loaded(command_code("train", *args)) == extensions


def test_scipy_optimize_and_spatial_reuse_the_training_extensions():
    # the later imports find the extensions under their own names
    code = """
import sys
import numpy as np
from patrolkit import iware, learners
rng = np.random.default_rng(0)
P, y = rng.random((40, 3)), rng.random(40) < 0.4
w = iware.optimize_weights_from_probs(P, y, np.ones((40, 3), bool))
X = rng.normal(size=(30, 4))
ell = learners.median_heuristic_lengthscale(X)
lbfgsb = sys.modules["scipy.optimize._lbfgsb"]
distance = sys.modules["scipy.spatial._distance_pybind"]
assert "scipy.optimize" not in sys.modules and "scipy.spatial" not in sys.modules
import scipy.optimize, scipy.spatial.distance
assert sys.modules["scipy.optimize._lbfgsb"] is scipy.optimize._lbfgsb_py._lbfgsb is lbfgsb
assert sys.modules["scipy.spatial._distance_pybind"] is scipy.spatial.distance._distance_pybind is distance
d = scipy.spatial.distance.pdist(X)
assert ell == float(np.median(d[d > 0]))
assert np.array_equal(iware.optimize_weights_from_probs(P, y, np.ones((40, 3), bool)), w)
"""
    loaded = scipy_loaded(code)
    assert "scipy.optimize" in loaded and "scipy.spatial" in loaded


def test_training_falls_back_to_importing_the_extensions(tmp_path):
    # where the files are not found, L-BFGS-B's and pdist's bindings come
    # from plain imports, with the rest of scipy.optimize and scipy.spatial
    code = f"""
import importlib.machinery, importlib.util
import numpy as np
find_spec = importlib.util.find_spec
def scipy_elsewhere(name, package=None):
    if name != "scipy":
        return find_spec(name, package)
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [{str(tmp_path)!r}]
    return spec
importlib.util.find_spec = scipy_elsewhere
from patrolkit.iware import optimize_weights_from_probs
from patrolkit.learners import TrainMatrix, train_gp
y = np.array([False, False, True, True])
P = np.column_stack([np.where(y, 0.9, 0.1), np.full(4, 0.5)])
w = optimize_weights_from_probs(P, y, np.ones((4, 2), bool))
assert w[0] > 0.99, w
X = np.array([[0.0], [1.0], [2.0], [4.0]])
model = train_gp(TrainMatrix(rows=X, labels=y), rng=0)
assert model.lengthscale == 2.0, model.lengthscale
"""
    loaded = scipy_loaded(code)
    assert "scipy.optimize" in loaded and "scipy.spatial" in loaded


def test_scipy_works_after_patrolkit_loads_its_extensions():
    # patrolkit loads its five extensions alone; the packages imported after
    # them in the same process find them by name, and their public functions
    # work on them
    code = """
import numpy as np
from patrolkit import iware, learners
import patrolkit.planner
L = np.array([[2.0, 0.0], [1.0, 3.0]], order="F")
b = np.array([2.0, 4.0])
x = learners._solve_lower(L, b)
M = np.arange(6.0).reshape(2, 3)
P = learners._gemm_t(2.0, M, M)
X = np.random.default_rng(0).normal(size=(20, 3))
ell = learners.median_heuristic_lengthscale(X)
iware.optimize_weights_from_probs(np.array([[0.9, 0.5], [0.1, 0.5]]), np.array([1.0, 0.0]),
                                  np.ones((2, 2), bool))
import scipy.linalg, scipy.optimize, scipy.spatial
from scipy.spatial.distance import pdist
assert np.array_equal(scipy.linalg.solve_triangular(L, b, lower=True), x)
assert np.array_equal(scipy.linalg.blas.dgemm(2.0, M, M, trans_b=True), P)
assert np.array_equal(P, 2.0 * M @ M.T)
res = scipy.optimize.minimize(lambda z: (((z - 1.5) ** 2).sum(), 2 * (z - 1.5)), np.zeros(2),
                              jac=True, method="L-BFGS-B")
assert res.success and np.allclose(res.x, 1.5), res
d = pdist(X)
assert ell == float(np.median(d[d > 0]))
res = scipy.optimize.milp(c=[-1, -1], integrality=[1, 1],
                          constraints=scipy.optimize.LinearConstraint([[2, 2]], -np.inf, 5))
assert res.status == 0 and res.fun == -2.0, res
"""
    loaded = scipy_loaded(code)
    assert {"scipy.linalg", "scipy.optimize", "scipy.spatial", LAPACK, FBLAS, LBFGSB,
            DISTANCE, HIGHS} <= loaded


def test_extension_is_an_attribute_of_its_imported_package():
    # before, it was in sys.modules alone, and the package imported before
    # it had no attribute by its name
    code = """
import sys, types
from patrolkit import scipyext
package = sys.modules["scipy.optimize"] = types.ModuleType("scipy.optimize")
lbfgsb = scipyext.load_extension("optimize._lbfgsb")
assert lbfgsb.__name__ == "scipy.optimize._lbfgsb" and package._lbfgsb is lbfgsb
"""
    assert LBFGSB in scipy_loaded(code)


def _predictions(monkeypatch) -> list:
    """Records one entry per learner prediction from now on."""
    calls = []
    for cls in (BaggedClassifier, GpClassifier):
        monkeypatch.setattr(cls, "predict_proba", lambda self, X, run=cls.predict_proba:
                            calls.append(len(X)) or run(self, X))
    return calls


QUERY_ARTIFACTS = ("riskmap.csv", "blocks.json", "plan.json", "beta_sweep.csv")


def _query_commands(out: str, args: list) -> None:
    for extra in (["riskmap"], ["plan"], ["plan", "--beta-sweep"]):
        assert run([*extra, *args, f"--output_dir={out}"]) == 0, extra


class TestStoredQueryOutputs:
    """train stores every learner's outputs on the prediction-period rows in
    model.json; riskmap and plan take them from there."""

    @staticmethod
    def _trained(learner) -> list:
        args = [*SMALL, f"--ensemble.learner={learner}"]
        assert run(["simulate", *args, "--output_dir=a"]) == 0
        assert run(["train", *args, "--output_dir=a"]) == 0
        return args

    @staticmethod
    def _without_block(workdir, src: str, dst: str) -> None:
        (workdir / dst).mkdir()
        for name in ("cells.csv", "dataset.csv"):
            (workdir / dst / name).write_bytes((workdir / src / name).read_bytes())
        doc = json.loads((workdir / src / "model.json").read_text())
        del doc["query_outputs"]
        io.write_json(workdir / dst / "model.json", doc, indent=None)

    @pytest.mark.parametrize("learner", ["trees", "gp"])
    def test_outputs_equal_those_of_a_model_without_the_block(self, workdir, monkeypatch,
                                                             learner):
        args = self._trained(learner)
        doc = json.loads((workdir / "a" / "model.json").read_text())
        masked = io.read_cells_csv(workdir / "a" / "cells.csv").masked_ids().size
        assert len(doc["query_outputs"]["prob"]) == masked
        self._without_block(workdir, "a", "b")
        calls = _predictions(monkeypatch)
        _query_commands("a", args)
        assert calls == []
        _query_commands("b", args)
        assert calls
        for name in QUERY_ARTIFACTS:
            assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes(), name

    @pytest.mark.parametrize("learner", ["trees", "gp"])
    def test_other_rows_miss_the_block(self, workdir, monkeypatch, learner):
        # the last window's effort is the rows' previous-effort feature
        args = self._trained(learner)
        self._without_block(workdir, "a", "b")
        grid = io.read_cells_csv(workdir / "a" / "cells.csv")
        ds = io.read_dataset_csv(workdir / "a" / "dataset.csv", grid)
        cell = int(grid.masked_ids()[0])
        effort = ds.effort.copy()
        effort[-1, cell] += 1.5
        changed = assemble_dataset(grid, effort, ds.labels)
        for out in ("a", "b"):
            io.write_dataset_csv(workdir / out / "dataset.csv", changed)
        calls = _predictions(monkeypatch)
        _query_commands("a", args)
        assert calls
        _query_commands("b", args)
        for name in QUERY_ARTIFACTS:
            assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes(), name

    @pytest.mark.parametrize("edit, field", [
        ("a row short", "query_outputs.prob"),
        ("a column fewer", "query_outputs.var"),
        ("var a row short", "query_outputs.var"),
        ("nan prob", "query_outputs.prob"),
        ("nan var", "query_outputs.var"),
        ("negative var", "query_outputs.var"),
        ("prob 0", "query_outputs.prob"),
        ("prob 1", "query_outputs.prob"),
        ("bool prob", "query_outputs.prob"),
        ("digest a number", "query_outputs.digest"),
        ("digest null", "query_outputs.digest"),
    ])
    def test_malformed_block(self, workdir, capsys, edit, field):
        # before, riskmap read past a malformed block with exit 0
        args = self._trained("trees")
        path = workdir / "a" / "model.json"
        doc = json.loads(path.read_text())
        block = doc["query_outputs"]
        prob, var = block["prob"], block["var"]
        if edit == "a row short":
            prob[0] = prob[0][:-1]
        elif edit == "a column fewer":
            block["var"] = [row[:-1] for row in var]
        elif edit == "var a row short":
            block["var"] = var[:-1]
        elif edit == "nan prob":
            prob[1][0] = float("nan")
        elif edit == "nan var":
            var[1][0] = float("nan")
        elif edit == "negative var":
            var[0][0] = -1e-9
        elif edit in ("prob 0", "prob 1"):
            prob[0][1] = float(edit[-1])
        elif edit == "bool prob":
            prob[2][0] = True
        else:
            block["digest"] = None if edit == "digest null" else 7
        path.write_text(json.dumps(doc) + "\n")
        before = sorted(p.name for p in (workdir / "a").iterdir())
        capsys.readouterr()
        for extra in (["riskmap"], ["plan"]):
            assert run([*extra, *args, "--output_dir=a"]) == 2, extra
            err = capsys.readouterr().err
            assert "malformed field" in err and field in err, (extra, err)
        assert sorted(p.name for p in (workdir / "a").iterdir()) == before


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
