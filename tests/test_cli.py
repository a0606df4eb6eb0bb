"""End-to-end runner checks, all in-process through cli.run / cli.main.

Configs are written into tmp_path and outputs land there too; the seeded
config under configs/ gets one full run to keep it honest.
"""

import glob
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import pullbacklab
from pullbacklab import cli, solver
from pullbacklab.errors import ConfigurationError
from pullbacklab.field import Trajectory, write_trajectory_csv
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
    write_trajectory_csv(tables["trajectory"], buf, p=plan.spec.nonlinearity.p)
    assert buf.getvalue().encode() == (out / "simulate_trajectory.csv").read_bytes()

    # no number of halvings of 0.01 divides 0.001
    cfg["noise"]["dt"] = 0.01
    code, out = run_into(tmp_path, cfg, subdir="rejected")
    assert code == 2
    err = capsys.readouterr().err
    assert "0.01" in err and "0.001" in err
    assert not out.exists()


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
    err = capsys.readouterr().err
    assert "solver.linear_solver_tol was removed" in err
    assert "direct" in err
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
        ("tail", "radii", [0.0, 4.0, 100.0], "must not exceed spec.domain_radius=8.0"),
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
    """The trajectory CSV and norms as written from a collected trajectory."""
    b, spec = plan.block, plan.spec
    eps, tau = spec.epsilon, b["tau"]
    w = shift(path, -tau)
    v0 = b["initial"].with_values(b["initial"].values * z_factor(w, eps, tau))
    traj = solver.integrate(v0, tau, tau + b["horizon"], w, spec, plan.cfg)
    states = tuple(
        s.with_values(s.values / z_factor(w, eps, float(t)))
        for t, s in zip(traj.times, traj.states)
    )
    buf = io.StringIO()
    write_trajectory_csv(Trajectory(traj.times, states, traj.stride), buf, p=spec.nonlinearity.p)
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
