import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adastoc
from adastoc import cli, complexity, framework


def _run(argv):
    return cli.main(argv)


def _walk_args(tmp_path, **over):
    args = {
        "p": "0.8", "gamma": "0.5,0.7", "alpha-bar": "1.0", "omega": "1.0",
        "n": "50", "reps": "2000", "seed": "1",
        "out": str(tmp_path / "walk.csv"), "summary-out": str(tmp_path / "walk_summary.csv"),
    }
    args.update(over)
    return ["walk"] + [f"--{k}={v}" for k, v in args.items()]


def test_walk_schema_and_row_count(tmp_path):
    assert _run(_walk_args(tmp_path)) == 0
    lines = (tmp_path / "walk.csv").read_text().splitlines()
    assert lines[0] == "gamma,k,alpha_walk_min_so_far,alpha_star"
    assert len(lines) == 1 + 2 * 51  # header + (n+1) rows per gamma
    summary = (tmp_path / "walk_summary.csv").read_text().splitlines()
    assert summary[0] == "gamma,alpha_star,dip_fraction,failure_bound,n,reps"
    assert len(summary) == 3


def test_walk_perfectly_reliable_never_dips(tmp_path):
    assert _run(_walk_args(tmp_path, p="1.0", gamma="0.5")) == 0
    rows = (tmp_path / "walk.csv").read_text().splitlines()[1:]
    mins = {row.split(",")[2] for row in rows}
    assert len(mins) == 1  # min-so-far stays at alpha_bar
    summary = (tmp_path / "walk_summary.csv").read_text().splitlines()[1]
    assert float(summary.split(",")[2]) == 0.0


def test_hitting_schema_and_edge_rows(tmp_path):
    out = tmp_path / "hit.csv"
    code = _run(["hitting", "--p=0.8", "--l-max=8", "--n=5", "--reps=500", "--seed=0", f"--out={out}"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "l,exact,bound,mc_estimate,mc_ci_halfwidth"
    assert len(lines) == 10
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0
    beyond = lines[-1].split(",")  # l = 8 > n = 5 is unreachable
    assert float(beyond[1]) == 0.0 and float(beyond[3]) == 0.0


def test_commands_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(); b.mkdir()
    for argv_of in (
        lambda d: _walk_args(tmp_path, out=str(d / "w.csv"), **{"summary-out": str(d / "ws.csv")}),
        lambda d: ["hitting", "--p=0.8", "--l-max=6", "--n=40", "--reps=2000", "--seed=3", f"--out={d / 'h.csv'}"],
        lambda d: [
            "optimize", "--method=sass", "--oracle=exact", "--noise=none", "--epsilon=0.001",
            "--theta=0.1", "--gamma=0.5", "--alpha0=1.0", "--alpha-max=1.0", "--x0=2.0,0.0",
            f"--out={d / 'o.csv'}",
        ],
        lambda d: [
            "sweep", "--method=storm", "--epsilons=0.2,0.1", "--reps=4", "--sigma-f=0.001",
            "--m-c=0.001", "--gamma=0.8", "--seed=5", f"--out={d / 's.csv'}",
        ],
    ):
        assert _run(argv_of(a)) == 0
        assert _run(argv_of(b)) == 0
    for name in ("w.csv", "ws.csv", "h.csv", "o.csv", "s.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_optimize_hand_example_summary(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = _run([
        "optimize", "--method=sass", "--oracle=exact", "--noise=none", "--epsilon=0.001",
        "--theta=0.1", "--gamma=0.5", "--alpha0=1.0", "--alpha-max=1.0", "--x0=2.0,0.0",
        f"--out={out}",
    ])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    descriptor = [l for l in printed if l.startswith("# ")]
    assert any(l == "# kind=quadratic" for l in descriptor)
    body = [l for l in printed if not l.startswith("# ")]
    assert body[0] == "T_eps,toc0,toc1,toc"
    assert body[1] == "1,2,1,3"
    lines = out.read_text().splitlines()
    assert lines[0] == "k,alpha,success,cost0,cost1,true_grad_norm,true_gap"
    assert len(lines) == 2


def test_optimize_unreached_stop_prints_empty_field(tmp_path, capsys):
    code = _run([
        "optimize", "--method=sass", "--oracle=exact", "--noise=none", "--epsilon=1e-30",
        "--theta=0.1", "--gamma=0.5", "--alpha0=0.125", "--alpha-max=0.125",
        "--max-iterations=5", "--x0=2.0,0.0", f"--out={tmp_path / 't.csv'}",
    ])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    summary = printed[printed.index("T_eps,toc0,toc1,toc") + 1]
    assert summary.startswith(",")


def test_sweep_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    code = _run([
        "sweep", "--method=storm", "--epsilons=0.2,0.1", "--reps=3", "--sigma-f=0.001",
        "--m-c=0.001", "--gamma=0.8", "--seed=0", f"--out={out}",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,mean_T,mean_toc0,mean_toc1,bound_expected,bound_highprob,exceed_frac"
    assert len(lines) == 3


def test_sweep_sass_strongly_convex_smoke(tmp_path):
    out = tmp_path / "sc.csv"
    code = _run([
        "sweep", "--method=sass", "--mode=strongly_convex", "--epsilons=0.01,0.001",
        "--reps=3", "--sigma-f=0.0001", "--m-c=1e-8", "--theta=0.5", "--gamma=0.7",
        "--batch-c=100", "--seed=2", f"--out={out}",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    t_small, t_big = (float(l.split(",")[1]) for l in lines[1:])
    assert t_big >= t_small


def test_unknown_flag_is_validation_error(tmp_path, capsys):
    assert _run(["walk", "--frobnicate=1"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_value_is_validation_error(tmp_path, capsys):
    assert _run(_walk_args(tmp_path, p="not-a-number")) == 1


def test_invalid_parameter_is_validation_error(tmp_path, capsys):
    # p <= 1/2 breaks the step-size floor computation
    assert _run(_walk_args(tmp_path, p="0.3")) == 1


def test_io_error_exit_code(tmp_path):
    code = _run(_walk_args(tmp_path, out=str(tmp_path / "no" / "such" / "dir" / "w.csv")))
    assert code == 3


def test_theory_violation_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "hitting_prob_bound", lambda p, l, n: -1.0)
    code = _run(["hitting", "--p=0.8", "--l-max=3", "--n=10", "--reps=100", f"--out={tmp_path / 'h.csv'}"])
    assert code == 2


def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 0.9, "n": 30, "reps": 500, "gamma": "0.5"}))
    out = tmp_path / "w.csv"
    code = _run([
        "walk", f"--config={cfg}", "--n=20", f"--out={out}",
        f"--summary-out={tmp_path / 'ws.csv'}", "--seed=0",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 21  # the explicit --n=20 wins over the config's 30


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quux": 1}))
    assert _run(["walk", f"--config={cfg}"]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_outdir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("ADASTOC_OUTDIR", str(tmp_path))
    code = _run(["hitting", "--p=0.8", "--l-max=2", "--n=10", "--reps=100", "--out=rel.csv"])
    assert code == 0
    assert (tmp_path / "rel.csv").exists()


def test_walk_reference_parameters_dip_within_budget(tmp_path):
    # alpha_bar=1, omega=1, p=0.8, gamma=0.5, n=100: the dip fraction over
    # 10^4 paths stays within the 0.012 failure budget plus Monte Carlo slack
    assert _run(_walk_args(
        tmp_path, p="0.8", gamma="0.5", n="100", reps="10000", seed="12",
    )) == 0
    row = (tmp_path / "walk_summary.csv").read_text().splitlines()[1].split(",")
    dip, budget = float(row[2]), float(row[3])
    assert budget == pytest.approx(0.012, rel=1e-9)
    assert dip <= budget + 2.5758 * np.sqrt(budget * (1 - budget) / 10_000)


def test_optimize_logistic_problem(tmp_path, capsys):
    code = _run([
        "optimize", "--method=sass", "--problem=logistic", "--dim=4", "--oracle=exact",
        "--noise=none", "--epsilon=0.05", "--theta=0.1", "--gamma=0.5",
        "--max-iterations=200", f"--out={tmp_path / 'l.csv'}",
    ])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert any(l == "# kind=logistic_synthetic" for l in printed)
    summary = printed[printed.index("T_eps,toc0,toc1,toc") + 1]
    assert summary.split(",")[0] != ""  # converged


def test_sweep_corollary_gamma_policy(tmp_path):
    out = tmp_path / "cor.csv"
    code = _run([
        "sweep", "--method=storm", "--epsilons=0.2,0.1", "--reps=3", "--sigma-f=0.001",
        "--m-c=0.001", "--gamma-policy=corollary", "--beta=0.25", "--seed=1", f"--out={out}",
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_corruption_oracle_through_cli(tmp_path, capsys):
    code = _run([
        "optimize", "--method=sass", "--oracle=corruption", "--noise=none",
        "--delta0=0.1", "--delta1=0.1", "--epsilon=1e-9", "--theta=0.1", "--gamma=0.5",
        "--alpha0=0.1", "--alpha-max=0.1", "--max-iterations=50", "--seed=4",
        "--x0=2.0,0.0", f"--out={tmp_path / 'c.csv'}",
    ])
    assert code == 0
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert len(lines) == 51


@pytest.mark.parametrize("command", ["sweep", "optimize"])
@pytest.mark.parametrize("flag", ["--delta0=0", "--kappa-ef=0"])
def test_degenerate_trust_region_spec_is_validation_error(tmp_path, capsys, command, flag):
    # sigma_f > 0 needs a positive delta0 and kappa_ef to size value batches
    extra = ["--epsilons=0.2", "--reps=2"] if command == "sweep" else ["--epsilon=0.2"]
    code = _run([
        command, "--method=storm", "--sigma-f=0.001", "--m-c=0.001", flag, *extra,
        f"--out={tmp_path / 'o.csv'}",
    ])
    assert code == 1
    assert "delta0 and kappa_ef must be positive when sigma_f > 0" in capsys.readouterr().err


def test_storm_sweep_refuses_an_unreliable_pair_before_running(tmp_path, capsys):
    # delta0 + delta1 >= 1/2 is refused up front, not after a Monte Carlo
    # run whose step sizes collapse
    code = _run([
        "sweep", "--method=storm", "--oracle=corruption", "--delta0=0.3", "--delta1=0.3",
        "--epsilons=0.1", "--reps=4", "--seed=0", f"--out={tmp_path / 's.csv'}",
    ])
    assert code == 1
    assert "delta0 + delta1" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_walk_default_summary_lands_beside_out(tmp_path, monkeypatch):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    argv = [a for a in _walk_args(tmp_path, out=str(tmp_path / "sub" / "w.csv")) if "summary-out" not in a]
    (tmp_path / "sub").mkdir()
    assert _run(argv) == 0
    assert (tmp_path / "sub" / "w_summary.csv").exists()
    assert not (elsewhere / "w_summary.csv").exists()



@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--epsilons=0", "--reps=2"],
        ["sweep", "--epsilons=0", "--mode=strongly_convex", "--reps=2"],
        ["sweep", "--method=storm", "--zeta=0", "--epsilons=0.2", "--reps=2"],
        ["optimize", "--method=storm", "--zeta=0"],
        ["sweep", "--method=storm", "--horizon-c2=0", "--epsilons=0.2", "--reps=2"],
    ],
)
def test_zero_divisor_is_validation_error(tmp_path, capsys, argv):
    # epsilon, zeta and the trust-region horizon_c2 are divisors: 0 is refused
    # before anything runs
    assert _run([*argv, f"--out={tmp_path / 'o.csv'}"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o.csv").exists()


def test_config_file_json_lists(tmp_path, capsys, monkeypatch):
    # a JSON list of floats is read as the comma-separated flag value would be
    base = [
        "--method=sass", "--oracle=exact", "--noise=none", "--epsilon=0.001", "--theta=0.1",
        "--gamma=0.5", "--alpha0=1.0", "--alpha-max=1.0",
    ]
    (tmp_path / "cfg.json").write_text(json.dumps({"x0": [2.0, 0.0]}))
    assert _run(["optimize", f"--config={tmp_path / 'cfg.json'}", *base, f"--out={tmp_path / 'a.csv'}"]) == 0
    assert _run(["optimize", "--x0=2.0,0.0", *base, f"--out={tmp_path / 'b.csv'}"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    (tmp_path / "cfg.json").write_text(json.dumps({"gamma": [0.5, 0.7], "n": 20, "reps": 100}))
    assert _run(["walk", f"--config={tmp_path / 'cfg.json'}", f"--out={tmp_path / 'w.csv'}"]) == 0
    assert len((tmp_path / "w.csv").read_text().splitlines()) == 1 + 2 * 21
    (tmp_path / "cfg.json").write_text(json.dumps({"x0": [2.0, "zero"]}))
    assert _run(["optimize", f"--config={tmp_path / 'cfg.json'}", *base, f"--out={tmp_path / 'c.csv'}"]) == 1
    assert "bad value for x0" in capsys.readouterr().err
    # a list where one value is expected is refused, not passed on
    monkeypatch.setenv("ADASTOC_OUTDIR", str(tmp_path))
    for key, value in (("p", 0.8), ("out", str(tmp_path / "l.csv"))):
        (tmp_path / "cfg.json").write_text(json.dumps({key: [value], "n": 5, "reps": 10}))
        assert _run(["hitting", f"--config={tmp_path / 'cfg.json'}"]) == 1
        assert f"{key} takes one value, not a list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, expected",
    [
        ("--l-max=-1", "l_max must be nonnegative"),
        ("--p=0.5", "reliability p must lie in (1/2, 1]"),
        ("--p=0.3", "reliability p must lie in (1/2, 1]"),
        ("--p=1.5", "reliability p must lie in (1/2, 1]"),
    ],
)
def test_hitting_refuses_bad_level_or_reliability_before_simulating(tmp_path, capsys, monkeypatch, flag, expected):
    # an empty level range or a p outside (1/2, 1] is refused before any walk
    # is simulated and before a CSV is written
    def no_simulation(*args, **kwargs):
        raise AssertionError("hitting simulated walks before validating its options")

    monkeypatch.setattr(cli, "walk_ensemble_stats", no_simulation)
    argv = ["hitting", "--p=0.8", "--l-max=4", "--n=10", "--reps=100", flag, f"--out={tmp_path / 'h.csv'}"]
    assert _run(argv) == 1
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--problem=quadratic", "--dim=2", "--x0=1.0,2.0,3.0"],
        ["optimize", "--problem=logistic", "--dim=5", "--x0=1.0,2.0"],
        ["sweep", "--method=sass", "--oracle=corruption", "--noise=none", "--dim=2",
         "--x0=1.0", "--epsilons=0.1", "--reps=3"],
    ],
)
def test_x0_of_the_wrong_length_is_refused_before_running(tmp_path, capsys, monkeypatch, argv):
    # a start point that does not match the problem's dimension is named as
    # such, not left to a numpy broadcasting error; sweep refuses it once,
    # before any replication runs
    def no_loop(*args, **kwargs):
        raise AssertionError("the adaptive loop ran with a start point of the wrong length")

    monkeypatch.setattr(framework, "_lockstep", no_loop)
    monkeypatch.setattr(complexity, "_lockstep", no_loop)
    assert _run([*argv, f"--out={tmp_path / 'o.csv'}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: x0 must have shape (")
    assert "replication" not in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("epsilon", ["0", "-0.1", "nan"])
def test_optimize_refuses_a_non_positive_epsilon(tmp_path, capsys, epsilon):
    # the tolerance is named, not the alpha bounds derived from it
    for method in ("storm", "sass"):
        argv = ["optimize", f"--method={method}", f"--epsilon={epsilon}", f"--out={tmp_path / 'o.csv'}"]
        assert _run(argv) == 1
        assert capsys.readouterr().err == "error: epsilon must be positive\n"
        assert not (tmp_path / "o.csv").exists()


def test_module_runs_as_a_script(tmp_path):
    # `python -m adastoc.cli` runs main and exits with its code
    src = str(Path(adastoc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "adastoc.cli", "hitting", "--l-max", "-1", "--out", str(tmp_path / "h.csv")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert "l_max must be nonnegative" in done.stderr
    assert not (tmp_path / "h.csv").exists()
