"""End-to-end runner checks, all in-process through cli.run / cli.main.

Configs are written into tmp_path and outputs land there too; the seeded
config under configs/ gets one full run to keep it honest.
"""

import json
import os
import subprocess
import sys

import pytest

import pullbacklab
from pullbacklab import cli, solver

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
