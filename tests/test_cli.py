"""End-to-end runner checks, all in-process through cli.run / cli.main.

Configs are written into tmp_path and outputs land there too; the seeded
config under configs/ gets one full run to keep it honest.
"""

import glob
import inspect
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import pullbacklab
from pullbacklab import attractor, cli, cocycle, model, solver
from pullbacklab.errors import ConfigurationError
from pullbacklab.field import (
    Field,
    Grid,
    Trajectory,
    check_tail_radii,
    gaussian_bump,
    trajectory_row,
    write_table_csv,
    write_trajectory_csv,
    zero_field,
)
from pullbacklab.noise import refine, sample_path, shift, z_factor

pytestmark = pytest.mark.filterwarnings("ignore::pullbacklab.errors.BoundaryLeakWarning")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def base_config(**overrides):
    cfg = {
        "experiment": "simulate",
        "spec": {
            "lambda": 2.0,
            "epsilon": 0.5,
            "dimension": 1,
            "domain_radius": 8.0,
            "nonlinearity": {"kind": "cubic", "alpha3": 1.0},
            "forcing": {
                "kind": "tanh_gaussian",
                "amplitude": 0.5,
                "delta": 0.5,
                "width": 1.0,
            },
        },
        "grid": {"points_per_axis": 65},
        "solver": {"dt": 0.001},
        "noise": {"seed": 1, "window": [-1.0, 1.0], "dt": 0.001},
        "simulate": {
            "tau": 0.0,
            "horizon": 0.0,
            "initial": {"kind": "gaussian_bump", "amplitude": 1.0, "width": 1.5},
        },
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    target = tmp_path / name
    target.write_text(json.dumps(cfg))
    return str(target)


def run_into(tmp_path, cfg, subdir="out"):
    out = tmp_path / subdir
    code = cli.run(write_config(tmp_path, cfg), output_dir=str(out), quiet=True)
    return code, out


def load_summary(out_dir, experiment):
    with open(out_dir / f"{experiment}_summary.json") as handle:
        return json.load(handle)


def test_simulate_zero_horizon_is_the_identity(tmp_path):
    code, out = run_into(tmp_path, base_config())
    assert code == 0
    summary = load_summary(out, "simulate")
    assert summary["schema"] == "pullbacklab-summary/1"
    assert summary["results"]["stored_states"] == 1
    assert summary["results"]["initial_norms"] == summary["results"]["final_norms"]
    assert summary["passed"] is True
    csv_lines = (out / "simulate_trajectory.csv").read_text().splitlines()
    assert len(csv_lines) == 2  # header plus the single stored state


def test_outputs_take_the_mode_the_umask_gives(tmp_path):
    # a file made by tempfile.mkstemp is 0600 whatever the umask, and the
    # rename kept that mode for every output
    old = os.umask(0o022)
    try:
        code, out = run_into(tmp_path, base_config())
    finally:
        os.umask(old)
    assert code == 0
    for name in ("simulate_summary.json", "simulate_trajectory.csv"):
        assert stat.S_IMODE(os.stat(out / name).st_mode) == 0o644


def test_a_failed_write_leaves_the_old_file_and_no_temporary_one(tmp_path, monkeypatch):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def refused(src, dst):
        raise OSError("refused")

    monkeypatch.setattr(cli.os, "replace", refused)
    with pytest.raises(OSError, match="refused"):
        cli._atomic_write(str(target), "new\n")
    assert os.listdir(tmp_path) == ["out.csv"]
    assert target.read_text() == "old\n"


def test_cocycle_zero_leg_residual_is_exactly_zero(tmp_path):
    cfg = base_config(
        experiment="cocycle-test",
        **{
            "cocycle-test": {
                "tau": 0.0,
                "t": 0.5,
                "s": 0.0,
                "residual_bound": 0.0,
                "initial": {"kind": "gaussian_bump", "amplitude": 1.0, "width": 1.5},
            }
        },
    )
    del cfg["simulate"]
    code, out = run_into(tmp_path, cfg)
    assert code == 0
    summary = load_summary(out, "cocycle-test")
    assert summary["results"]["residual"] == 0.0
    assert summary["checks"]["residual_small"] is True


def test_describe_covers_every_experiment(capsys):
    for name in cli.EXPERIMENTS:
        assert cli.main(["describe", name]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"{name}:")
    assert cli.main(["describe", "made-up"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_config_errors_name_the_offending_field(tmp_path, capsys):
    assert cli.run(str(tmp_path / "missing.json"), quiet=True) == 2
    assert "cannot read" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert cli.run(str(broken), quiet=True) == 2
    assert "invalid JSON" in capsys.readouterr().err

    code, _ = run_into(tmp_path, base_config(extra=1))
    assert code == 2
    assert "extra" in capsys.readouterr().err

    cfg = base_config()
    cfg["simulate"]["bogus"] = 1
    code, _ = run_into(tmp_path, cfg)
    assert code == 2
    assert "config.simulate" in capsys.readouterr().err

    code, _ = run_into(tmp_path, base_config(experiment=["simulate"]))
    assert code == 2
    assert "unknown experiment ['simulate']" in capsys.readouterr().err

    cfg = base_config()
    cfg["pullback"] = {"tau": 0.0}
    code, _ = run_into(tmp_path, cfg)
    assert code == 2
    assert "config.pullback" in capsys.readouterr().err

    cfg = base_config()
    cfg["simulate"]["initial"] = {"kind": "spiral"}
    code, _ = run_into(tmp_path, cfg)
    assert code == 2
    assert "unknown kind" in capsys.readouterr().err

    # sections of the wrong type are configuration errors, not crashes
    for section in ("spec", "grid", "solver", "output"):
        code, _ = run_into(tmp_path, base_config(**{section: [1, 2]}))
        assert code == 2
        assert f"{section} must be a mapping" in capsys.readouterr().err
    code, _ = run_into(tmp_path, base_config(output={"formats": 7}))
    assert code == 2
    assert "output.formats must be a list" in capsys.readouterr().err
    code, _ = run_into(tmp_path, base_config(output={"directory": 7}))
    assert code == 2
    assert "output.directory must be a string" in capsys.readouterr().err


def test_non_finite_numbers_exit_two(tmp_path, capsys):
    # json reads NaN and Infinity (and 1e400 as infinity) as floats, and
    # 10**400 written out as an integer that no float holds
    for where, value in (
        (("simulate", "horizon"), float("nan")),
        (("simulate", "horizon"), float("inf")),
        (("simulate", "horizon"), 10**400),
        (("spec", "lambda"), float("-inf")),
        (("solver", "dt"), float("nan")),
        (("noise", "dt"), float("inf")),
    ):
        cfg = base_config()
        cfg[where[0]][where[1]] = value
        code, _ = run_into(tmp_path, cfg)
        assert code == 2, where
        assert f"{where[0]}.{where[1]} must be a finite number" in capsys.readouterr().err
    cfg = base_config()
    cfg["noise"]["window"] = [float("nan"), 1.0]
    code, _ = run_into(tmp_path, cfg)
    assert code == 2
    assert "noise.window[0] must be a finite number" in capsys.readouterr().err


def test_bools_are_not_integers(tmp_path, capsys):
    cfg = base_config(solver={"dt": 0.001, "store_stride": True})
    cfg_mode = base_config()
    cfg_mode["simulate"]["initial"] = {"kind": "eigenmode", "mode": True}
    cfg_grid = base_config(grid={"points_per_axis": True})
    cfg_dim = base_config()
    cfg_dim["spec"]["dimension"] = True
    with open(os.path.join(REPO_ROOT, "configs", "upper_semi.json")) as handle:
        cfg_semi = json.load(handle)
    cfg_semi["upper-semi"]["max_inversions"] = True
    cases = (
        (cfg, "solver.store_stride"),
        (cfg_mode, "config.simulate.initial.mode"),
        (cfg_grid, "grid.points_per_axis"),
        (cfg_dim, "spec.dimension"),
        (cfg_semi, "config.upper-semi.max_inversions"),
    )
    for config, where in cases:
        code, _ = run_into(tmp_path, config)
        assert code == 2, where
        assert f"{where} must be an integer, got True" in capsys.readouterr().err


def test_noise_section_validation(tmp_path, capsys):
    cfg = base_config()
    cfg["noise"]["window"] = [0.5, 1.0]
    code, _ = run_into(tmp_path, cfg)
    assert code == 2
    assert "contain time 0" in capsys.readouterr().err

    cfg = base_config()
    cfg["noise"]["seed"] = True
    code, _ = run_into(tmp_path, cfg)
    assert code == 2
    assert "noise.seed" in capsys.readouterr().err

    # numpy's seed sequences take no negative entropy
    cfg = base_config()
    cfg["noise"]["seed"] = -1
    code, out = run_into(tmp_path, cfg)
    assert code == 2
    assert "noise.seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_times_snap_onto_the_dt_lattice(tmp_path):
    cfg = base_config()
    cfg["simulate"]["tau"] = 0.001 + 1e-10  # a hair off one step
    code, out = run_into(tmp_path, cfg)
    assert code == 0
    summary = load_summary(out, "simulate")
    assert any("tau" in line for line in summary["snapped"])
    assert summary["config"]["simulate"]["tau"] == 0.001


def test_off_lattice_times_are_rejected(tmp_path, capsys):
    cfg = base_config()
    cfg["simulate"]["tau"] = 0.0004  # 40% of a step: no snap, hard error
    code, _ = run_into(tmp_path, cfg)
    assert code == 2
    assert "not a multiple" in capsys.readouterr().err


def test_reruns_are_identical_outside_the_timestamp(tmp_path):
    cfg = base_config()
    cfg["simulate"]["horizon"] = 0.1
    code_a, out = run_into(tmp_path, cfg)
    sum_a = load_summary(out, "simulate")
    csv_a = (out / "simulate_trajectory.csv").read_bytes()
    code_b, _ = run_into(tmp_path, cfg)  # same output directory
    assert code_a == code_b == 0
    sum_b = load_summary(out, "simulate")
    ts_a = sum_a.pop("metadata")
    ts_b = sum_b.pop("metadata")
    assert sum_a == sum_b
    assert ts_a.keys() == ts_b.keys() == {"timestamp", "workers"}
    assert csv_a == (out / "simulate_trajectory.csv").read_bytes()


def test_json_only_output_writes_no_csv(tmp_path):
    cfg = base_config(output={"formats": ["json"]})
    code, out = run_into(tmp_path, cfg)
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["simulate_summary.json"]


@pytest.mark.parametrize("formats", [["csv"], []])
def test_formats_without_json_exit_two_before_any_output(tmp_path, capsys, formats):
    # the summary is always written, so a list that leaves "json" out would
    # ask for an output the run cannot honour
    code, out = run_into(tmp_path, base_config(output={"formats": formats}))
    assert code == 2
    assert 'output.formats must include "json"' in capsys.readouterr().err
    assert not out.exists()


def test_failed_check_exits_one(tmp_path):
    cfg = base_config(
        experiment="tail",
        tail={
            "tau": 0.0,
            "horizon": 1.0,
            "radii": [0.0, 2.0],
            "initial": {"kind": "gaussian_bump", "amplitude": 1.0, "width": 1.5},
            "fraction_bound": 0.0,  # unattainable on purpose
            "fraction_radius": 2.0,
        },
    )
    del cfg["simulate"]
    code, out = run_into(tmp_path, cfg)
    assert code == 1
    summary = load_summary(out, "tail")
    assert summary["checks"]["tail_fraction_small"] is False
    assert summary["checks"]["tail_nonincreasing_l2"] is True
    assert summary["passed"] is False


def test_divergence_triggers_one_halved_retry(tmp_path):
    # amplitude 3.5 at dt = 0.5 overflows the cubic on a still path, and the
    # same run completes after the automatic halving to dt = 0.25
    cfg = base_config(
        grid={"points_per_axis": 129},
        solver={"dt": 0.5},
        noise={"seed": None, "window": [-1.0, 7.0], "dt": 0.5},
    )
    cfg["simulate"] = {
        "tau": 0.0,
        "horizon": 6.0,
        "initial": {"kind": "gaussian_bump", "amplitude": 3.5, "width": 1.5},
    }
    code, out = run_into(tmp_path, cfg)
    assert code == 0
    summary = load_summary(out, "simulate")
    assert summary["retried_after_divergence"] is True
    assert summary["checks"]["completed"] is True
    assert summary["config"]["solver"]["dt"] == 0.25
    # the CSV holds the retried run's 25 states and nothing that the first
    # attempt streamed before it diverged
    lines = (out / "simulate_trajectory.csv").read_text().splitlines()
    assert summary["results"]["stored_states"] == 25
    assert len(lines) == 1 + summary["results"]["stored_states"]
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.25 * j for j in range(25)]


def test_coarse_noise_is_bridge_refined_onto_the_solver_lattice(tmp_path, capsys):
    with open(os.path.join(REPO_ROOT, "configs", "simulate.json")) as handle:
        cfg = json.load(handle)
    cfg["noise"]["dt"] = 0.008
    code, out = run_into(tmp_path, cfg)
    assert code == 0
    summary = load_summary(out, "simulate")
    assert summary["snapped"] == ["noise.dt: 0.008 -> 0.001 by 3 bridge refinements"]
    assert summary["config"]["noise"]["dt"] == 0.008
    # the run reads the sampled path refined three times, nothing else
    plan = cli._resolve(cfg, str(tmp_path / "direct"))
    path = refine(refine(refine(sample_path(1, -1.0, 3.0, 0.008))))
    results, checks, tables = cli._exec_simulate(plan, path)
    assert json.loads(json.dumps(cli._sanitize(results))) == summary["results"]
    assert checks == summary["checks"]
    buf = io.StringIO()
    write_table_csv(*tables["trajectory"], buf)
    assert buf.getvalue().encode() == (out / "simulate_trajectory.csv").read_bytes()

    # no number of halvings of 0.01 divides 0.001
    cfg["noise"]["dt"] = 0.01
    code, out = run_into(tmp_path, cfg, subdir="rejected")
    assert code == 2
    err = capsys.readouterr().err
    assert "0.01" in err and "0.001" in err
    assert not out.exists()


def test_a_retry_reports_its_own_path_refinement(tmp_path):
    # amplitude 45 diverges at dt = 1e-3; the retry at 5e-4 reads the path
    # bridge-refined once, as a run configured at 5e-4 does, and says so
    cfg = shipped("simulate")
    cfg["simulate"]["initial"]["amplitude"] = 45.0
    code, out = run_into(tmp_path, cfg)
    cfg["solver"]["dt"] = 5e-4
    code_direct, out_direct = run_into(tmp_path, cfg, subdir="direct")
    assert code == code_direct == 0
    retried, direct = load_summary(out, "simulate"), load_summary(out_direct, "simulate")
    assert retried["retried_after_divergence"] is True
    assert direct["retried_after_divergence"] is False
    assert retried["results"] == direct["results"]
    note = "noise.dt: 0.001 -> 0.0005 by 1 bridge refinements"
    assert retried["snapped"] == direct["snapped"] == [note]


def test_eigenmode_initial_data_runs(tmp_path):
    cfg = base_config()
    cfg["simulate"]["initial"] = {"kind": "eigenmode", "mode": 2, "amplitude": 0.1}
    code, out = run_into(tmp_path, cfg)
    assert code == 0
    assert load_summary(out, "simulate")["results"]["stored_states"] == 1

    cfg["simulate"]["initial"] = {"kind": "eigenmode", "mode": 0}
    code, _ = run_into(tmp_path, cfg)
    assert code == 2


def test_seeded_equilibrium_config_passes(tmp_path):
    code = cli.run(
        os.path.join(REPO_ROOT, "configs", "equilibrium.json"),
        output_dir=str(tmp_path),
        quiet=True,
    )
    assert code == 0
    summary = load_summary(tmp_path, "equilibrium")
    assert summary["checks"]["converged"] is True
    lines = (tmp_path / "equilibrium_history.csv").read_text().splitlines()
    assert lines[0] == "horizon,relative_increment"
    increments = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b < a for a, b in zip(increments, increments[1:]))
    assert increments[-1] <= 1e-6


def test_main_quiet_run_prints_nothing(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    code = cli.main(
        ["run", "--config", path, "--output-dir", str(tmp_path / "o"), "--quiet"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""


def test_removed_linear_solver_tol_key_exits_two(tmp_path, capsys):
    cfg = base_config()
    cfg["solver"]["linear_solver_tol"] = 1e-10
    code, out = run_into(tmp_path, cfg)
    assert code == 2
    # no section reads the key, so it is unknown, as any other
    assert "unknown key(s) ['linear_solver_tol'] in solver;" in capsys.readouterr().err
    assert not out.exists()


def test_cli_loads_no_scipy_at_import_or_run(tmp_path):
    # the runtime is numpy only: importing scipy.linalg added about 0.35 s
    # and 27 MB to every start on a 2-core Xeon host.  Checked again after a
    # 1D and a 2D run in the same interpreter, so a lazy import cannot hide
    cfg_1d = base_config()
    cfg_1d["simulate"]["horizon"] = 0.01
    cfg_2d = base_config(grid={"points_per_axis": 17})
    cfg_2d["spec"].update(dimension=2, domain_radius=6.0)
    cfg_2d["simulate"]["horizon"] = 0.01
    configs = [write_config(tmp_path, cfg, f"{name}.json")
               for name, cfg in (("1d", cfg_1d), ("2d", cfg_2d))]
    src = os.path.dirname(os.path.dirname(pullbacklab.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    probe = (
        "import sys, pullbacklab.cli as cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(loaded())\n"
        "for config in sys.argv[1:]:\n"
        "    print(cli.run(config, output_dir=f'{config}.out', quiet=True))\n"
        "print(loaded())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, *configs],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "0", "0", "[]"]


def test_metadata_names_the_march_workers(tmp_path):
    code, out = run_into(tmp_path, base_config())
    assert code == 0
    assert load_summary(out, "simulate")["metadata"]["workers"] == solver.worker_count()


SHIPPED = sorted(
    os.path.splitext(os.path.basename(p))[0]
    for p in glob.glob(os.path.join(REPO_ROOT, "configs", "*.json"))
)


def shipped(name):
    with open(os.path.join(REPO_ROOT, "configs", f"{name}.json")) as handle:
        return json.load(handle)


def no_path(*args, **kwargs):
    raise AssertionError("a rejected config must not sample a path")


@pytest.mark.parametrize("name", SHIPPED)
def test_an_intensity_outside_the_unit_interval_exits_two_before_any_path(
    tmp_path, capsys, monkeypatch, name
):
    # the spec section carries the runs' intensity; the plan reads it, and
    # the config is refused while parsing
    monkeypatch.setattr(cli, "sample_path", no_path)
    cfg = shipped(name)
    cfg["spec"]["epsilon"] = 1.5
    code, out = run_into(tmp_path, cfg)
    assert code == 2
    assert "spec: epsilon must lie in [0, 1], got 1.5" in capsys.readouterr().err
    assert not out.exists()


def test_the_truncation_unit_window_is_counted_on_the_lattice_at_parse_time(
    tmp_path, capsys, monkeypatch
):
    # 3.0 and the noise window sit on the lattice of dt = 0.003; the unit
    # window 1.0 does not, which the parser says before any path is sampled
    monkeypatch.setattr(cli, "sample_path", no_path)
    cfg = shipped("truncation")
    cfg["solver"]["dt"] = 0.003
    cfg["noise"].update(window=[-6.0, 0.999], dt=0.003)
    cfg["truncation"]["horizon"] = 3.0
    code, out = run_into(tmp_path, cfg)
    assert code == 2
    assert "the unit window 1.0 is not a multiple of dt=0.003" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_config_rejects_an_unknown_block_key(tmp_path, capsys, name):
    # rejected while parsing, so nothing marches and nothing is written
    cfg = shipped(name)
    cfg[cfg["experiment"]]["bogus"] = 1
    code, out = run_into(tmp_path, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert f"['bogus'] in config.{cfg['experiment']};" in err
    assert not out.exists()


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_config_csvs_end_lines_with_a_bare_newline(tmp_path, name):
    code, out = run_into(tmp_path, shipped(name))
    assert code == 0
    for csv_path in out.glob("*.csv"):
        text = csv_path.read_bytes()
        assert text.endswith(b"\n") and b"\r" not in text, csv_path.name


def _put(section, key, value):
    section[key] = value
    return value


@pytest.mark.parametrize(
    "config, section, where",
    [
        ("simulate", lambda cfg: cfg, "config"),
        ("simulate", lambda cfg: cfg["spec"], "spec"),
        ("simulate", lambda cfg: cfg["spec"]["nonlinearity"], "spec.nonlinearity"),
        ("simulate", lambda cfg: cfg["spec"]["forcing"], "spec.forcing"),
        ("simulate", lambda cfg: _put(cfg["spec"], "forcing", {"kind": "zero"}), "spec.forcing"),
        ("simulate", lambda cfg: cfg["grid"], "grid"),
        ("simulate", lambda cfg: cfg["solver"], "solver"),
        ("simulate", lambda cfg: cfg["noise"], "noise"),
        ("simulate", lambda cfg: cfg["output"], "output"),
        ("simulate", lambda cfg: cfg["simulate"], "config.simulate"),
        ("simulate", lambda cfg: cfg["simulate"]["initial"], "config.simulate.initial"),
        ("simulate", lambda cfg: _put(cfg["simulate"], "initial", {"kind": "zero"}),
         "config.simulate.initial"),
        ("simulate", lambda cfg: _put(cfg["simulate"], "initial", {"kind": "eigenmode", "mode": 2}),
         "config.simulate.initial"),
        ("upper_semi", lambda cfg: cfg["upper-semi"]["ensemble"][1],
         "config.upper-semi.ensemble[1]"),
    ],
)
def test_every_section_rejects_an_unknown_key(tmp_path, capsys, config, section, where):
    # the root, the spec and its two sections, grid, solver, noise, output,
    # the experiment block and each kind of initial data, in and out of a list
    cfg = shipped(config)
    section(cfg)["bogus"] = 1
    code, out = run_into(tmp_path, cfg)
    assert code == 2
    assert f"['bogus'] in {where};" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_config_resolves_to_a_fixed_point(tmp_path, name):
    # the resolved config holds only config values (initial data as given,
    # not Fields), and resolving it again changes nothing
    plan = cli._resolve(shipped(name), str(tmp_path))
    resolved = json.loads(json.dumps(plan.resolved_config()))
    assert cli._resolve(resolved, str(tmp_path)).resolved_config() == resolved


def test_tail_fraction_radius_must_be_one_of_the_radii(tmp_path, capsys):
    cfg = shipped("tail")
    cfg["tail"]["fraction_radius"] = 3.0
    with pytest.raises(ConfigurationError, match=r"fraction_radius=3.0 is not one of"):
        cli._resolve(cfg, str(tmp_path))
    code, _ = run_into(tmp_path, cfg)
    assert code == 2
    assert "config.tail.fraction_radius=3.0" in capsys.readouterr().err


def test_tail_fraction_radius_needs_fraction_bound(tmp_path, capsys):
    cfg = shipped("tail")
    del cfg["tail"]["fraction_bound"]
    with pytest.raises(ConfigurationError, match="missing key 'fraction_bound'"):
        cli._resolve(cfg, str(tmp_path))
    code, _ = run_into(tmp_path, cfg)
    assert code == 2
    assert "missing key 'fraction_bound' in config.tail" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(set(SHIPPED) - {"simulate", "simulate_2d"}))
def test_store_stride_rejected_where_no_trajectory_is_stored(tmp_path, capsys, name):
    # only simulate stores a trajectory; elsewhere a stride other than the
    # 1 the summary echoes would be ignored, so it is refused while parsing
    # and nothing marches or is written
    cfg = shipped(name)
    cfg["solver"]["store_stride"] = 7
    code, out = run_into(tmp_path, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert f"solver.store_stride must be 1 for {cfg['experiment']!r}" in err
    assert "stores nothing, got 7" in err
    assert not out.exists()


@pytest.mark.parametrize("stride", [0, -3])
def test_a_store_stride_below_one_exits_two_before_any_path(tmp_path, capsys, monkeypatch, stride):
    monkeypatch.setattr(cli, "sample_path", no_path)
    cfg = shipped("simulate")
    cfg["solver"]["store_stride"] = stride
    code, out = run_into(tmp_path, cfg)
    assert code == 2
    assert f"solver.store_stride must be an integer >= 1, got {stride}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", SHIPPED)
def test_the_resolved_config_echoes_the_store_stride(tmp_path, name):
    # the stride is the plan's, not the solver config's, and the summary
    # still echoes it where it did
    want = {"simulate": 100, "simulate_2d": 50}.get(name, 1)
    plan = cli._resolve(shipped(name), str(tmp_path))
    assert plan.stride == want
    assert plan.resolved_config()["solver"] == {"dt": plan.cfg.dt, "store_stride": want}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("dimension", 3, "spec: dimension must be 1 or 2, got 3"),
        ("dimension", True, "spec.dimension must be an integer, got True"),
        ("domain_radius", 0.0, "spec: domain_radius must be positive, got 0.0"),
        ("domain_radius", -1.0, "spec: domain_radius must be positive, got -1.0"),
    ],
)
def test_a_bad_box_exits_two_before_any_path(tmp_path, capsys, monkeypatch, key, value, message):
    # the box is the grid's, though its keys sit in the spec section: a rule
    # that Grid refuses names the key whose value breaks it
    monkeypatch.setattr(cli, "_make_path", no_path)
    cfg = shipped("simulate")
    cfg["spec"][key] = value
    code, out = run_into(tmp_path, cfg)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", SHIPPED)
def test_the_resolved_config_echoes_the_box(tmp_path, name):
    cfg = shipped(name)
    plan = cli._resolve(cfg, str(tmp_path))
    keys = ("dimension", "domain_radius")
    echoed = [plan.resolved_config()["spec"][key] for key in keys]
    assert echoed == [cfg["spec"][key] for key in keys] == [plan.grid.dimension, plan.grid.radius]


@pytest.mark.parametrize("name", ["upper_semi", "check_hypotheses"])
def test_noise_section_rejected_where_no_path_is_read(tmp_path, capsys, name):
    cfg = shipped(name)
    cfg["noise"] = {"seed": 1, "window": [-1.0, 1.0], "dt": 0.001}
    code, out = run_into(tmp_path, cfg)
    assert code == 2
    assert "reads no configured noise path" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, key, value, rule",
    [
        ("absorbing", "pullback_horizon", 0.0, "must be positive"),
        ("absorbing", "quadrature_horizon", -1.0, "must be positive"),
        ("upper_semi", "seeds", [], "must be a non-empty list of integers"),
        ("upper_semi", "epsilon_ladder", [0.1, 0.25, 0.5], "must be strictly decreasing"),
        ("upper_semi", "epsilon_ladder", [1.5, 0.5], "must stay inside [0, 1]"),
        ("equilibrium", "tol", 0.0, "must be positive"),
        ("equilibrium", "t_schedule", [2.0, 1.0], "must be strictly increasing"),
        ("equilibrium", "t_schedule", [0.0, 1.0], "must hold positive horizons"),
        ("decay_rate", "fit_start", 6.0, "must lie in [0, window=6.0)"),
        ("decay_rate", "fit_start", -0.5, "must lie in [0, window=6.0)"),
        ("upper_semi", "seeds[1]", [0, -2], "must be an integer >= 0, got -2"),
        ("tail", "radii", [0.0, 4.0, 100.0], "must not exceed the domain radius 8.0"),
        ("truncation", "levels", [-1.0, 2.0], "must hold positive levels"),
        ("truncation", "horizon", 0.5, "must cover the unit window: at least 1"),
        ("cocycle_test", "t", -0.5, "must be nonnegative"),
        ("cocycle_test", "s", -0.5, "must be nonnegative"),
        ("check_hypotheses", "n_samples", 1, "must be an integer >= 2, got 1"),
        ("check_hypotheses", "s_range", 0.0, "must be positive"),
        # each bound is compared with a quantity >= 0, so a negative one
        # could only fail after the whole march
        ("cocycle_test", "residual_bound", -1e-10, "must be nonnegative"),
        ("absorbing", "stability_bound", -0.01, "must be nonnegative"),
        ("absorbing", "constant_band", -0.2, "must be nonnegative"),
        ("truncation", "final_bound", -1e-8, "must be nonnegative"),
        ("tail", "fraction_bound", -0.5, "must be nonnegative"),
        ("upper_semi", "ratio_bound", -0.2, "must be nonnegative"),
        ("upper_semi", "max_inversions", -1, "must be an integer >= 0, got -1"),
        # over no time each sample is the ensemble itself, so every check
        # would pass without a pullback
        ("upper_semi", "horizon", 0.0, "must be positive"),
        ("upper_semi", "horizon", -1.0, "must be positive"),
        ("tail", "horizon", -1.0, "must be nonnegative"),
    ],
)
def test_block_value_rules_name_the_key_before_any_march(
    tmp_path, capsys, monkeypatch, name, key, value, rule
):
    def no_march(*args, **kwargs):
        raise AssertionError("a rejected block must not march")

    monkeypatch.setattr(solver, "_march", no_march)
    cfg = shipped(name)
    # a key such as seeds[1] names one entry of the list it sets
    cfg[cfg["experiment"]][key.partition("[")[0]] = value
    code, out = run_into(tmp_path, cfg)
    assert code == 2
    assert f"config.{cfg['experiment']}.{key} {rule}" in capsys.readouterr().err
    assert not out.exists()


def no_march(*args, **kwargs):
    raise AssertionError("a refused run must not march")


@pytest.mark.parametrize(
    "name, changes, key, rule",
    [
        ("equilibrium", {"t_schedule": [1.0]}, "t_schedule", "must list at least two horizons"),
        ("equilibrium", {"t_schedule": [2.0, 1.0]}, "t_schedule", "must be strictly increasing"),
        ("equilibrium", {"t_schedule": [0.0, 1.0]}, "t_schedule", "must hold positive horizons"),
        ("equilibrium", {"tol": 0.0}, "tol", "must be positive"),
        ("decay_rate", {"fit_start": 6.0}, "fit_start", "must lie in [0, window=6.0)"),
        ("decay_rate", {"fit_start": -0.5}, "fit_start", "must lie in [0, window=6.0)"),
        # the fraction keys name one of the radii, so an empty list goes without them
        ("tail", {"radii": [], "fraction_bound": None, "fraction_radius": None}, "radii",
         "must be a non-empty list"),
        ("tail", {"radii": [0.0, 4.0, 100.0]}, "radii", "must not exceed the domain radius 8.0"),
        ("tail", {"horizon": -1.0}, "horizon", "must be nonnegative"),
        ("truncation", {"horizon": 0.5}, "horizon", "must cover the unit window: at least 1"),
        ("truncation", {"levels": [-1.0, 2.0]}, "levels", "must hold positive levels"),
        ("upper_semi", {"seeds": []}, "seeds", "must be a non-empty list of integers"),
        ("upper_semi", {"epsilon_ladder": []}, "epsilon_ladder", "must be a non-empty list"),
        ("upper_semi", {"epsilon_ladder": [0.1, 0.5]}, "epsilon_ladder",
         "must be strictly decreasing"),
        ("upper_semi", {"epsilon_ladder": [1.5, 0.5]}, "epsilon_ladder", "must stay inside [0, 1]"),
        ("upper_semi", {"ensemble": []}, "ensemble", "must be a non-empty list"),
        ("upper_semi", {"horizon": 0.0}, "horizon", "must be positive"),
        ("cocycle_test", {"t": -0.5}, "t", "must be nonnegative"),
        ("cocycle_test", {"s": -0.5}, "s", "must be nonnegative"),
        ("check_hypotheses", {"n_samples": 1}, "n_samples", "must be an integer >= 2, got 1"),
        ("check_hypotheses", {"s_range": 0.0}, "s_range", "must be positive"),
    ],
)
def test_a_run_function_owns_its_value_rules(
    tmp_path, capsys, monkeypatch, name, changes, key, rule
):
    # the parser reads the bad value as it is, and the run refuses it under
    # the block's key before any step; None deletes a key
    monkeypatch.setattr(solver, "_march", no_march)
    cfg = shipped(name)
    block = cfg[cfg["experiment"]]
    block.update(changes)
    for dropped in [k for k, v in changes.items() if v is None]:
        del block[dropped]
    cli._resolve(cfg, str(tmp_path))
    code, out = run_into(tmp_path, cfg)
    assert code == 2
    assert f"config.{cfg['experiment']}.{key} {rule}" in capsys.readouterr().err
    assert not out.exists()


def _refusal_cases():
    """(function, the argument it refuses, its call) for each value rule a
    run function owns; each call takes the desk problem as a namespace."""

    def equilibrium(d, schedule, tol=1e-6):
        return attractor.compute_equilibrium(0.0, d.path, 0.5, d.spec, d.cfg, d.u0, schedule, tol)

    def sweep(d, seeds=(0,), ladder=(0.5,), ensemble=None, horizon=1.0):
        ensemble = [d.u0] if ensemble is None else ensemble
        return attractor.upper_semicontinuity_sweep(
            0.0, seeds, ladder, d.spec, d.cfg, ensemble, horizon
        )

    def tail(d, horizon, radii):
        return attractor.tail_profile(0.0, d.path, 0.5, d.spec, d.cfg, d.u0, horizon, radii)

    def truncation(d, horizon, levels):
        return attractor.truncation_diagnostics(
            0.0, d.path, 0.5, d.spec, d.cfg, d.u0, horizon, levels
        )

    def decay(d):
        bump = gaussian_bump(d.u0.grid, 1.0, 1.5)
        return attractor.fit_decay_rate(0.0, d.path, 0.5, d.spec, d.cfg, d.u0, bump, 2.0, 2.0)

    def cocycle_law(d, t, s):
        return cocycle.verify_cocycle_property(t, s, 0.0, d.path, 0.5, d.u0, d.spec, d.cfg)

    E, S = attractor.compute_equilibrium, attractor.upper_semicontinuity_sweep
    T, D = attractor.tail_profile, attractor.truncation_diagnostics
    H = model.check_hypotheses
    cases = [
        (E, "t_schedule", lambda d: equilibrium(d, [1.0])),
        (E, "t_schedule", lambda d: equilibrium(d, [2.0, 1.0])),
        (E, "t_schedule", lambda d: equilibrium(d, [0.0, 1.0])),
        (E, "tol", lambda d: equilibrium(d, [1.0, 2.0], tol=0.0)),
        (attractor.fit_decay_rate, "fit_start", decay),
        (T, "radii", lambda d: tail(d, 1.0, [])),
        (T, "radii", lambda d: tail(d, 1.0, [9.0])),
        (T, "horizon", lambda d: tail(d, -1.0, [1.0])),
        (D, "horizon", lambda d: truncation(d, 0.5, [1.0, 2.0])),
        (D, "levels", lambda d: truncation(d, 2.0, [-1.0, 2.0])),
        (S, "seeds", lambda d: sweep(d, seeds=[])),
        (S, "epsilon_ladder", lambda d: sweep(d, ladder=[])),
        (S, "epsilon_ladder", lambda d: sweep(d, ladder=[0.1, 0.5])),
        (S, "epsilon_ladder", lambda d: sweep(d, ladder=[1.5, 0.5])),
        (S, "ensemble", lambda d: sweep(d, ensemble=[])),
        (S, "horizon", lambda d: sweep(d, horizon=0.0)),
        (cocycle.verify_cocycle_property, "t", lambda d: cocycle_law(d, -0.5, 1.0)),
        (cocycle.verify_cocycle_property, "s", lambda d: cocycle_law(d, 1.0, -0.5)),
        (H, "n_samples", lambda d: H(d.spec, d.u0.grid, n_samples=1)),
        (H, "s_range", lambda d: H(d.spec, d.u0.grid, s_range=0.0)),
        (attractor.absorbing_radius, "quadrature_horizon",
         lambda d: attractor.absorbing_radius(0.0, d.path, 0.5, d.spec, d.u0.grid, 0.0)),
        (check_tail_radii, "radii", lambda d: check_tail_radii(d.u0.grid, [9.0])),
        (Grid, "dimension", lambda d: Grid(3, 8.0, 65)),
        (Grid, "radius", lambda d: Grid(1, 0.0, 65)),
        (Grid, "points_per_axis", lambda d: Grid(1, 8.0, 64)),
    ]
    return [
        pytest.param(fn, argument, call, id=f"{fn.__name__}-{argument}-{i}")
        for i, (fn, argument, call) in enumerate(cases)
    ]


@pytest.mark.parametrize("fn, argument, call", _refusal_cases())
def test_a_refusal_starts_with_the_argument_it_refuses(
    monkeypatch, desk_spec, desk_grid, desk_cfg, desk_path, fn, argument, call
):
    # the convention the CLI's key mapping rests on: the first word of a
    # run function's refusal is one of its parameters, and no step is taken
    monkeypatch.setattr(solver, "_march", no_march)
    desk = SimpleNamespace(spec=desk_spec, cfg=desk_cfg, path=desk_path, u0=zero_field(desk_grid))
    with pytest.raises(ConfigurationError) as refused:
        call(desk)
    assert str(refused.value).split(" ")[0] == argument
    assert argument in inspect.signature(fn).parameters


def test_a_deeper_refusal_is_printed_unkeyed(tmp_path, capsys, monkeypatch):
    # only a first word that is one of the block's keys is keyed: tau=0.0005
    # is no key, so the message is printed as the library wrote it
    message = "tau=0.0005 is not a multiple of dt=0.001: off the lattice"

    def off_lattice(*args, **kwargs):
        raise ConfigurationError(message)

    monkeypatch.setattr(cli, "compute_equilibrium", off_lattice)
    code, out = run_into(tmp_path, shipped("equilibrium"))
    assert code == 2
    assert capsys.readouterr().err == f"config: {message}\n"
    assert not out.exists()


def test_an_output_dir_under_a_file_exits_two_before_any_march(tmp_path, capsys, monkeypatch):
    # os.makedirs could not make it, which the run would learn only after
    # the whole march
    monkeypatch.setattr(solver, "_march", no_march)
    blocker = tmp_path / "afile"
    blocker.write_text("kept\n")
    target = blocker / "sub"
    code = cli.run(write_config(tmp_path, shipped("pullback")), output_dir=str(target), quiet=True)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"output: cannot make {target}: {blocker} is not a directory\n"
    assert blocker.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["afile", "cfg.json"]


def test_a_failed_write_exits_two_with_an_output_message(tmp_path, capsys):
    # a directory where the summary goes: the rename over it fails after the
    # run, and the error is reported, not raised
    out = tmp_path / "out"
    (out / "simulate_summary.json").mkdir(parents=True)
    code = cli.run(write_config(tmp_path, base_config()), output_dir=str(out), quiet=True)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("output: ") and "simulate_summary.json" in err
    assert "Traceback" not in err
    assert sorted(os.listdir(out)) == ["simulate_summary.json", "simulate_trajectory.csv"]


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        (("simulate", "initial"), "width", 0.0, "config.simulate.initial: width must be positive"),
        (("spec", "forcing"), "width", 0.0, "spec.forcing: width must be positive"),
        (("simulate",), "initial", {"kind": "eigenmode", "mode": 0},
         "config.simulate.initial: mode must lie in [1, 127], got 0"),
        (("spec", "nonlinearity"), "alpha3", -1.0,
         "spec.nonlinearity: alpha3 and scale must be positive"),
        ((), "grid", {"points_per_axis": 4}, "grid: points_per_axis must be odd"),
        ((), "solver", {"dt": -0.001}, "solver: dt must be positive"),
        # a float power overflows where a product would give inf
        (("spec", "nonlinearity"), "alpha3", 1e300, "spec.nonlinearity: alpha3 is too large"
         " for scale 1.0: alpha3^2/(2*scale) overflows, got 1e+300"),
        (("spec", "forcing"), "width", 1e300,
         "spec.forcing: width is too large: width^2 overflows, got 1e+300"),
        (("simulate", "initial"), "width", 1e300,
         "config.simulate.initial: width is too large: width^2 overflows, got 1e+300"),
        # the spec holds delta's rule for every forcing kind
        (("spec", "forcing"), "delta", -0.5, "spec: forcing delta must lie in [0, lambda)"),
    ],
)
def test_library_value_rules_name_their_section(tmp_path, capsys, section, key, value, message):
    # the constructors check these rules; the config reader says where the
    # offending value sits
    cfg = shipped("simulate")
    target = cfg
    for name in section:
        target = target[name]
    target[key] = value
    code, out = run_into(tmp_path, cfg)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_memory_does_not_grow_with_the_horizon(tmp_path):
    # the 2D trajectory is reduced to its CSV rows as it is marched: holding
    # the stored states grew the peak by 1.5 MB from horizon 1 to horizon 4
    peaks = []
    for horizon in (1.0, 4.0):
        cfg = shipped("simulate_2d")
        cfg["noise"]["window"] = [-1.0, 5.0]
        cfg["simulate"]["horizon"] = horizon
        plan = cli._resolve(cfg, str(tmp_path))
        path = cli._make_path(plan)
        tracemalloc.start()
        try:
            cli._exec_simulate(plan, path)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.2


def _old_trajectory_csv(plan, path):
    """The trajectory CSV and norms as written from a collected trajectory:
    every ``solver.store_stride``-th state and the final one."""
    b, spec = plan.block, plan.spec
    eps, tau = plan.epsilon, b["tau"]
    w = shift(path, -tau)
    v0 = b["initial"].with_values(b["initial"].values * z_factor(w, eps, tau))
    traj = solver.integrate(v0, tau, tau + b["horizon"], w, eps, spec, plan.cfg)
    n = len(traj.states) - 1
    kept = [*range(0, n, plan.stride), n]
    states = tuple(
        traj.states[j].with_values(traj.states[j].values / z_factor(w, eps, float(traj.times[j])))
        for j in kept
    )
    buf = io.StringIO()
    write_trajectory_csv(Trajectory(traj.times[kept], states), buf, p=spec.nonlinearity.p)
    return buf.getvalue(), states


@pytest.mark.parametrize("name", ["simulate", "simulate_2d"])
def test_streamed_trajectory_csv_equals_the_collected_one(tmp_path, name):
    cfg = shipped(name)
    code, out = run_into(tmp_path, cfg)
    assert code == 0
    plan = cli._resolve(cfg, str(tmp_path))
    text, states = _old_trajectory_csv(plan, cli._make_path(plan))
    assert (out / "simulate_trajectory.csv").read_bytes() == text.encode()
    results = load_summary(out, "simulate")["results"]
    p = plan.spec.nonlinearity.p
    assert results["stored_states"] == len(states)
    assert results["initial_norms"] == cli._norms(states[0], p)
    assert results["final_norms"] == cli._norms(states[-1], p)


@pytest.mark.parametrize("name", ["simulate", "simulate_2d"])
def test_streamed_rows_equal_trajectory_rows_over_stored_states(tmp_path, name):
    # a store stride of 7 divides neither 2,000 nor 500 steps, so the last
    # row is the endpoint, off the stride
    cfg = shipped(name)
    cfg["solver"]["store_stride"] = 7
    plan = cli._resolve(cfg, str(tmp_path))
    path = cli._make_path(plan)
    _, _, tables = cli._exec_simulate(plan, path)
    b, spec = plan.block, plan.spec
    eps, tau = plan.epsilon, b["tau"]
    w = shift(path, -tau)
    v0 = b["initial"].with_values(b["initial"].values * z_factor(w, eps, tau))
    column = ((v0,), tau, tau + b["horizon"], (w,), (eps,))
    states = solver.stored_values(*column, spec, plan.cfg, plan.stride)
    p = spec.nonlinearity.p
    want = [
        trajectory_row(t, Field(plan.grid, v[0] / z_factor(w, eps, float(t))), p)
        for t, v in states
    ]
    assert want[-1][0] == tau + b["horizon"] and (want[-1][0] - want[-2][0]) / plan.cfg.dt < 7
    header, rows = tables["trajectory"]
    assert header == ["t", "l2", "h1", f"l{p:g}"]
    assert [list(map(repr, row)) for row in rows] == [
        list(map(repr, row)) for row in want
    ]


@pytest.mark.parametrize("name", ["simulate", "simulate_2d"])
@pytest.mark.parametrize(
    "where, value, message",
    [
        ("centre", np.nan, "must be finite"),
        ("centre", -np.inf, "must be finite"),
        ("first corner", 1e-300, "identically zero"),
        ("last edge", 1.0, "identically zero"),
    ],
)
def test_a_bad_streamed_state_is_refused(tmp_path, monkeypatch, name, where, value, message):
    # the march cannot make such a state; a stream that yields one after two
    # good ones stands in for a kernel fault, which the reduction must catch
    stream = solver.stored_values

    def spoiled(*args):
        for j, (t, v) in enumerate(stream(*args)):
            if j == 2:
                v = v.copy()
                col = v[0]
                mid = len(col) // 2
                col[{
                    "centre": (mid,) * col.ndim,
                    "first corner": (0,) * col.ndim,
                    "last edge": (mid,) * (col.ndim - 1) + (-1,),
                }[where]] = value
            yield t, v

    monkeypatch.setattr(cocycle, "stored_values", spoiled)
    plan = cli._resolve(shipped(name), str(tmp_path))
    with pytest.raises(ValueError, match=message):
        cli._exec_simulate(plan, cli._make_path(plan))
