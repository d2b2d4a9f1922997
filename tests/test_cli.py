import csv
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import adastoc
from adastoc import cli, complexity, framework
from adastoc.methods import SassMethod, StormMethod
from adastoc.oracles import (
    PairCorruptionOracles,
    SassMinibatchOracles,
    SassOracleSpec,
    StormMinibatchOracles,
    StormOracleSpec,
)
from adastoc.problems import NoiseSpec, make_problem
from adastoc.tableio import write_csv, write_formatted_csv
from adastoc.walk import (
    WalkParams,
    gamma_threshold,
    hitting_prob_exact,
    simulate_walk,
    stepsize_lower_bound,
    walk_ensemble_stats,
)


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


def _walk_summary(tmp_path):
    """The walk summary's rows as {column: float}."""
    with open(tmp_path / "walk_summary.csv", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def test_walk_schema_and_row_count(tmp_path):
    assert _run(_walk_args(tmp_path)) == 0
    lines = (tmp_path / "walk.csv").read_text().splitlines()
    assert lines[0] == "gamma,k,alpha_walk_min_so_far,alpha_star"
    assert len(lines) == 1 + 2 * 51  # header + (n+1) rows per gamma
    # the cells are what tableio.write_csv prints for the same values (%.17e round-trips)
    rows = [(float(g), int(k), float(a), float(s)) for g, k, a, s in (line.split(",") for line in lines[1:])]
    write_csv(tmp_path / "again.csv", lines[0].split(","), rows)
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "walk.csv").read_bytes()
    summary = (tmp_path / "walk_summary.csv").read_text().splitlines()
    assert summary[0] == "gamma,alpha_star,dip_fraction,dip_exact,failure_bound,n,reps"
    assert len(summary) == 3


def test_walk_perfectly_reliable_never_dips(tmp_path):
    assert _run(_walk_args(tmp_path, p="1.0", gamma="0.5")) == 0
    rows = (tmp_path / "walk.csv").read_text().splitlines()[1:]
    mins = {row.split(",")[2] for row in rows}
    assert len(mins) == 1  # min-so-far stays at alpha_bar
    summary = _walk_summary(tmp_path)[0]
    assert summary["dip_fraction"] == 0.0 and summary["dip_exact"] == 0.0


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


@pytest.mark.parametrize("p, l_max, n", [("0.9999", 6, 2), ("0.999", 3, 1)])
def test_hitting_bound_past_the_horizon_is_nonnegative(tmp_path, p, l_max, n):
    # a level l >= n + 2 is unreachable: its bound is the overshoot term alone, never negative
    out = tmp_path / "hit.csv"
    assert _run(["hitting", f"--p={p}", f"--l-max={l_max}", f"--n={n}", "--reps=100", "--seed=0", f"--out={out}"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == l_max + 1
    for row in rows:
        assert float(row["bound"]) >= float(row["exact"]) >= 0.0


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


def test_optimize_with_a_wide_step_size_range_starts_at_once(tmp_path):
    # 1e20 between alpha0 and alpha_max at gamma = 1 - 1e-7: about 4.6e8 exponents
    start = time.perf_counter()
    assert _run([
        "optimize", "--method=sass", "--oracle=exact", "--noise=none", "--epsilon=1e-3",
        "--gamma=0.9999999", "--alpha0=1e-10", "--alpha-max=1e10", "--max-iterations=3",
        f"--out={tmp_path / 'trace.csv'}",
    ]) == 0
    assert time.perf_counter() - start < 5.0
    assert len((tmp_path / "trace.csv").read_text().splitlines()) == 4


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
    row = _walk_summary(tmp_path)[0]
    dip, budget = row["dip_fraction"], row["failure_bound"]
    assert budget == pytest.approx(0.012, rel=1e-9)
    assert dip <= budget + 2.5758 * np.sqrt(budget * (1 - budget) / 10_000)


def test_walk_draws_one_ensemble_and_keeps_each_gammas_path_stream(tmp_path, monkeypatch):
    # every gamma's dip fraction comes from one ensemble; gamma i's path
    # still draws from SeedSequence(seed).spawn(len(gammas))[i].spawn(2)[0]
    calls = []
    ensemble = cli.walk_ensemble_stats

    def counting(*args, **kwargs):
        calls.append(args)
        return ensemble(*args, **kwargs)

    monkeypatch.setattr(cli, "walk_ensemble_stats", counting)
    gammas, n, seed = (0.5, 0.7, 0.9), 40, 5
    assert _run(_walk_args(
        tmp_path, gamma=",".join(map(str, gammas)), n=str(n), reps="300", seed=str(seed),
    )) == 0
    assert len(calls) == 1
    lines = (tmp_path / "walk.csv").read_text().splitlines()[1:]
    for i, gamma in enumerate(gammas):
        params = WalkParams(p=0.8, gamma=gamma, alpha_bar=1.0, omega=1.0)
        alpha_star = stepsize_lower_bound(params, n)[0]
        stream = np.random.SeedSequence(seed).spawn(len(gammas))[i].spawn(2)[0]
        states = simulate_walk(params, n, np.random.default_rng(stream)).states
        min_so_far = gamma ** np.maximum.accumulate(states).astype(float)
        expected = [
            "%.17e,%d,%.17e,%.17e" % (gamma, k, alpha, alpha_star)
            for k, alpha in enumerate(min_so_far.tolist())
        ]
        assert lines[i * (n + 1):(i + 1) * (n + 1)] == expected


@pytest.mark.parametrize(
    "p, gammas, alpha_bar, n, seed",
    [
        (0.8, "0.5,0.7", "1.0", 300, 0),
        (0.55, "0.9,0.3,0.6", "2.5", 1000, 7),
        (0.6, "1e-5", "1e-300", 400, 11),  # step sizes in the subnormals and underflowing to 0
        (1.0, "0.5", "1.0", 20, 3),
    ],
)
def test_walk_csv_is_the_formatted_rows_of_each_gammas_path(tmp_path, p, gammas, alpha_bar, n, seed):
    # the lines built per level equal write_formatted_csv of the
    # (gamma, k, min-so-far step size, alpha_star) rows of every path
    assert _run(_walk_args(
        tmp_path, p=str(p), gamma=gammas, **{"alpha-bar": alpha_bar}, n=str(n), reps="20", seed=str(seed),
    )) == 0
    gamma_list = [float(g) for g in gammas.split(",")]
    children = np.random.SeedSequence(seed).spawn(len(gamma_list) + 1)
    rows = []
    for gamma, child in zip(gamma_list, children):
        params = WalkParams(p=p, gamma=gamma, alpha_bar=float(alpha_bar), omega=1.0)
        alpha_star = stepsize_lower_bound(params, n)[0]
        states = simulate_walk(params, n, np.random.default_rng(child.spawn(1)[0])).states
        min_so_far = params.alpha_bar * gamma ** np.maximum.accumulate(states).astype(float)
        rows.extend((gamma, k, alpha, alpha_star) for k, alpha in enumerate(min_so_far.tolist()))
    write_formatted_csv(tmp_path / "again.csv", cli.WALK_CSV_HEADER, "%.17e,%d,%.17e,%.17e", rows)
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "walk.csv").read_bytes()


def test_walk_dip_exact_is_the_probability_of_passing_the_floor_level(tmp_path):
    # dip_exact = P(M >= level + 1), one hitting probability for every gamma
    # (the level depends on p, omega and n only), and the simulated
    # dip_fraction agrees with it in a two-sided exact binomial test
    from scipy.stats import binomtest

    p, omega, n, reps = 0.9, 0.01, 20, 20_000
    assert _run(_walk_args(
        tmp_path, p=str(p), omega=str(omega), gamma="0.5,0.8", n=str(n), reps=str(reps), seed="4",
    )) == 0
    rows = _walk_summary(tmp_path)
    for row in rows:
        params = WalkParams(p=p, gamma=row["gamma"], alpha_bar=1.0, omega=omega)
        level = stepsize_lower_bound(params, n)[2]
        assert row["dip_exact"] == hitting_prob_exact(p, level + 1, n)
        assert row["dip_exact"] >= 0.01
        dips = round(row["dip_fraction"] * reps)
        assert binomtest(dips, reps, row["dip_exact"]).pvalue > 1e-3
    assert rows[0]["dip_fraction"] == rows[1]["dip_fraction"]  # both gammas read the same paths


def test_walk_dip_counts_the_first_depth_below_the_floor(tmp_path):
    # at p = 0.75, n = 16, omega = 1 the floor's level is 8, but at gamma = 0.8
    # the first depth m whose step size falls below alpha_star is 10: both
    # dip_fraction and dip_exact count M >= m, on the ensemble drawn from
    # the last child of SeedSequence(seed).spawn(len(gammas) + 1)
    p, gamma, n, reps, seed = 0.75, 0.8, 16, 20_000, 5
    assert _run(_walk_args(
        tmp_path, p=str(p), omega="1", gamma=str(gamma), n=str(n), reps=str(reps), seed=str(seed),
    )) == 0
    row = _walk_summary(tmp_path)[0]
    alpha_star, _, level = stepsize_lower_bound(WalkParams(p=p, gamma=gamma, alpha_bar=1.0), n)
    assert level == 8
    assert gamma**9.0 >= alpha_star > gamma**10.0
    assert row["dip_exact"] == hitting_prob_exact(p, 10, n) != hitting_prob_exact(p, level + 1, n)
    stream = np.random.SeedSequence(seed).spawn(2)[-1]
    max_levels, _ = walk_ensemble_stats(p, n, reps, np.random.default_rng(stream))
    assert row["dip_fraction"] == np.mean(max_levels >= 10) < np.mean(max_levels >= 9)


def _full_scan_dip_depth(params, alpha_star, n):
    depths = np.arange(n + 1, dtype=float)
    return int(np.append(np.flatnonzero(params.alpha_bar * params.gamma ** depths < alpha_star), n + 1)[0])


def test_walk_dip_depth_from_a_window_equals_the_full_scan():
    # the window of depths near the floor's level gives the first depth of
    # the full scan, the no-dip value n + 1 included
    no_dip = 0
    for p in (0.55, 0.6, 0.8, 0.95, 1.0):
        for gamma in (0.1, 0.5, 0.6, 0.9, 0.999, 1.0 - 2.0**-40):
            for alpha_bar in (1.0, 0.3, 1e-300):
                for omega in (0.01, 1.0, 3.0):
                    for n in (2, 3, 16, 100, 12_345, 10**6):
                        if n == 10**6 and (gamma not in (0.5, 1.0 - 2.0**-40) or (alpha_bar, omega) != (1.0, 1.0)):
                            continue  # a full scan of 10**6 depths takes 0.1 s
                        params = WalkParams(p=p, gamma=gamma, alpha_bar=alpha_bar, omega=omega)
                        alpha_star, _, level = stepsize_lower_bound(params, n)
                        expected = _full_scan_dip_depth(params, alpha_star, n)
                        assert cli._dip_depth(params, alpha_star, level, n) == expected, (p, gamma, alpha_bar, omega, n)
                        no_dip += expected == n + 1
    assert no_dip > 0


def test_walk_dip_exact_above_the_failure_bound_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "hitting_prob_exact", lambda p, l, n: np.ones(len(l)))
    assert _run(_walk_args(tmp_path)) == 2
    assert not (tmp_path / "walk.csv").exists()
    assert not (tmp_path / "walk_summary.csv").exists()


@pytest.mark.parametrize(
    "flag, expected",
    [
        ("--gamma=0.5,1.5", "gamma must lie in (0,1)"),
        ("--p=0.5", "reliability p must lie in (1/2, 1]"),
        ("--p=0.3", "reliability p must lie in (1/2, 1]"),
        ("--p=1.5", "p must be a probability"),
        ("--n=1", "n must be at least 2"),
        ("--reps=0", "reps must be positive"),
    ],
)
def test_walk_refuses_bad_inputs_before_simulating(tmp_path, capsys, monkeypatch, flag, expected):
    # every gamma's parameters and floor, and reps, are checked before the
    # shared ensemble or any representative path is drawn, and before a CSV
    # is written
    def no_simulation(*args, **kwargs):
        raise AssertionError("walk simulated walks before validating its options")

    monkeypatch.setattr(cli, "walk_ensemble_stats", no_simulation)
    monkeypatch.setattr(cli, "simulate_walk", no_simulation)
    assert _run([*_walk_args(tmp_path), flag]) == 1
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "walk.csv").exists()
    assert not (tmp_path / "walk_summary.csv").exists()


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


@pytest.mark.parametrize("p", ["0.4", "0.5", "1.5"])
def test_sass_sweep_refuses_an_unreliable_p_before_running(tmp_path, capsys, monkeypatch, p):
    # --reliability-p outside (1/2, 1] is refused up front, not after every
    # replication of the first epsilon has run
    def no_loop(*args, **kwargs):
        raise AssertionError("the adaptive loop ran before --reliability-p was checked")

    monkeypatch.setattr(cli, "monte_carlo_sweep", no_loop)
    code = _run([
        "sweep", "--method=sass", f"--reliability-p={p}", "--epsilons=0.2", "--reps=4",
        "--seed=0", f"--out={tmp_path / 's.csv'}",
    ])
    assert code == 1
    assert f"reliability p must lie in (1/2, 1], got {float(p)}" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--method=storm", "--horizon-c1=0"], "horizon_c1 must be positive"),
        (["--method=sass", "--horizon-c2=-3"], "horizon_c2 must be positive"),
        (["--method=sass", "--mode=strongly_convex", "--horizon-c1=-1"], "horizon_c1 must be positive"),
        (["--method=storm", "--mode=strongly_convex", "--horizon-c2=0"], "horizon_c2 must be positive"),
    ],
)
def test_sweep_refuses_a_nonpositive_horizon_constant_before_running(tmp_path, capsys, monkeypatch, argv, message):
    # a horizon clamped to n = 2 would bound runs it does not cover
    def no_runs(*args, **kwargs):
        raise AssertionError("a replication ran before the horizon constants were checked")

    monkeypatch.setattr(cli, "monte_carlo_sweep", no_runs)
    out = tmp_path / "s.csv"
    assert _run(["sweep", *argv, "--epsilons=0.1", "--reps=2", "--seed=0", f"--out={out}"]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_names_the_first_failing_replication_of_a_later_tolerance(tmp_path, capsys):
    # a value estimate whose corruption coin hits is inf, so a run fails at
    # its first corrupted iteration.  At seed 2 every replication at
    # epsilon 0.1 stops first; at 0.01 replication 3 fails at iteration 25,
    # before replication 0 fails at 43, and the lowest failing replication
    # is the one named, as one-at-a-time runs would name it
    out = tmp_path / "s.csv"
    code = _run([
        "sweep", "--method=sass", "--oracle=corruption", "--noise=none", "--dim=4", "--conditioning=10",
        "--delta0=0.01", "--delta1=0.1", "--value-shift=inf", "--gamma=0.6", "--epsilons=0.1,0.01",
        "--reps=4", "--seed=2", f"--out={out}",
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: replication 0: non-finite value estimate at iteration 43\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "shift, message",
    [
        ("inf", "error: replication 2: non-finite value estimate at iteration 64\n"),
        ("0", "error: alpha0 must lie in (0, alpha_max]\n"),
    ],
    ids=["first-fails", "first-runs"],
)
def test_sweep_runs_earlier_tolerances_before_refusing_a_later_config(tmp_path, capsys, shift, message):
    # alpha0 = 0.016 fits alpha_max = epsilon / zeta = 0.02 at epsilon 0.2
    # but not 0.01 at epsilon 0.1.  With an infinite value shift the first
    # tolerance fails at run time, and that error comes first, as it does
    # when each tolerance runs before the next is configured; without it
    # the first runs through and the second's configuration is refused
    out = tmp_path / "s.csv"
    code = _run([
        "sweep", "--method=storm", "--oracle=corruption", "--noise=none", "--dim=4", "--conditioning=10",
        "--delta0=0.01", "--delta1=0.1", f"--value-shift={shift}", "--gamma=0.6", "--epsilons=0.2,0.1",
        "--alpha0=0.016", "--reps=4", "--seed=2", f"--out={out}",
    ])
    assert code == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_corruption_sweep_bounds_ignore_the_noise_flags(tmp_path):
    # the corruption suite draws one sample per call whatever the noise, and the bounds count those
    argv = ["sweep", "--method=storm", "--oracle=corruption", "--epsilons=0.2,0.1", "--reps=5",
            "--gamma=0.8", "--seed=0"]
    noisy, quiet = tmp_path / "noisy.csv", tmp_path / "quiet.csv"
    assert _run([*argv, f"--out={noisy}"]) == 0
    assert _run([*argv, "--noise=none", f"--out={quiet}"]) == 0
    assert noisy.read_bytes() == quiet.read_bytes()
    with open(noisy, newline="") as fh:
        first = next(csv.DictReader(fh))
    n = math.ceil(10.0 * 2.0 / 0.2**2)
    assert float(first["bound_highprob"]) == 3 * n == 1500


@pytest.mark.parametrize(
    "argv",
    [
        ["--method=storm", "--oracle=exact", "--noise=none", "--delta0=0", "--delta1=0"],
        ["--method=sass", "--reliability-p=1"],
    ],
)
def test_sweep_reports_a_perfectly_reliable_walk(tmp_path, argv):
    # p = 1 is admissible: the reports take q/p = 0 without a math domain error
    out = tmp_path / "s.csv"
    assert _run(["sweep", *argv, "--epsilons=0.2,0.1", "--reps=3", "--seed=0", f"--out={out}"]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (2, 7) and np.isfinite(rows).all()


def _sweep_rows_from_the_library(case, seed, epsilons, reps):
    """Each sweep row recomputed from monte_carlo_toc and the method's report, at the derived seeds."""
    rows = []
    for epsilon, master in zip(epsilons, framework.derive_seeds(seed, len(epsilons))):
        if case.startswith("storm"):
            prob = make_problem("quadratic", 2, 1.0, NoiseSpec.gaussian(sigma_f=1e-3, m_c=1e-2), seed=0)
            spec = StormOracleSpec(delta0=0.1, delta1=0.1, sigma_f=1e-3, sigma_g=0.1)
            n = max(2, math.ceil(10.0 * 2.0 / epsilon**2))
            gamma = gamma_threshold(0.8, n, 1.0, 0.25) if case == "storm-corollary" else 0.8
            alpha_bar = epsilon / 10.0  # epsilon / zeta
            cfg = framework.AlgoConfig(theta=0.1, gamma=gamma, alpha0=alpha_bar, alpha_max=alpha_bar)
            summary = complexity.monte_carlo_toc(
                prob, StormMethod(), StormMinibatchOracles(spec), cfg, epsilon, reps, master
            )
            report = complexity.storm_complexity_report(spec, epsilon, 10.0, n, gamma, 1.0, prob_t_exceeds_n=0.1)
        elif case == "sass-minibatch":
            noise = NoiseSpec.gaussian(sigma_f=1e-3, m_c=1e-3, m_v=0.01)
            prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
            n = max(2, math.ceil(10.0 * 2.0 / epsilon**2))
            alpha_max = (1.0 - 0.1) / prob.lipschitz
            suite = SassMinibatchOracles(SassOracleSpec(), epsilon)
            # an unset r is twice the value estimate's deviation at this tolerance's batch
            r = 2.0 * 1e-3 / math.sqrt(suite.cost_models(prob)[0].batch(1.0))
            cfg = framework.AlgoConfig(theta=0.1, gamma=0.6, alpha0=alpha_max, alpha_max=alpha_max, r=r)
            summary = complexity.monte_carlo_toc(prob, SassMethod(), suite, cfg, epsilon, reps, master)
            report = complexity.sass_complexity_report(
                SassOracleSpec(), noise, epsilon, n, 0.6, 1.0, "nonconvex",
                p=0.8, alpha_bar=alpha_max, prob_t_exceeds_n=1.0 - summary.stopped_fraction,
            )
        else:
            prob = make_problem("quadratic", 4, 10.0, NoiseSpec.none(), seed=0)
            n = max(2, math.ceil(1.0 * 0.05 / epsilon**2))
            alpha_max = (1.0 - 0.1) / prob.lipschitz
            cfg = framework.AlgoConfig(theta=0.1, gamma=0.6, alpha0=alpha_max, alpha_max=alpha_max)
            summary = complexity.monte_carlo_toc(
                prob, SassMethod(), PairCorruptionOracles(0.1, 0.1), cfg, epsilon, reps, master
            )
            # today's step-search semantics: alpha_bar = alpha_max, P(T > n) from the same sample
            report = complexity.sass_complexity_report(
                SassOracleSpec(), NoiseSpec.none(), epsilon, n, 0.6, 1.0, "nonconvex",
                p=0.8, alpha_bar=alpha_max, prob_t_exceeds_n=1.0 - summary.stopped_fraction,
            )
        tocs = (summary.toc0 + summary.toc1).tolist()
        bound = report.high_probability.bound_value
        rows.append([
            epsilon, summary.mean_iterations, summary.mean_toc0, summary.mean_toc1,
            report.expected.bound_value, bound, sum(t > bound for t in tocs) / reps,
        ])
    return rows


@pytest.mark.parametrize(
    "case, flags",
    [
        ("storm-minibatch", ["--method=storm", "--oracle=minibatch", "--sigma-f=0.001", "--m-c=0.01",
                             "--gamma=0.8"]),
        ("sass-corrupt", ["--method=sass", "--oracle=corruption", "--noise=none", "--dim=4",
                          "--conditioning=10", "--gamma=0.6", "--horizon-c1=0.05", "--horizon-c2=1"]),
        ("sass-minibatch", ["--method=sass", "--oracle=minibatch", "--sigma-f=0.001", "--m-c=0.001",
                            "--m-v=0.01"]),
        ("storm-corollary", ["--method=storm", "--oracle=minibatch", "--sigma-f=0.001", "--m-c=0.01",
                             "--gamma-policy=corollary"]),
    ],
)
def test_sweep_rows_are_the_library_monte_carlo_and_report(tmp_path, case, flags):
    # pins the sweep's wiring: seeds, horizon, config, bounds and exceedance;
    # the sweep runs its tolerances together, the library one at a time
    epsilons, reps, seed = [0.1, 0.03] if case == "sass-corrupt" else [0.2, 0.1], 6, 4
    out = tmp_path / "s.csv"
    argv = ["sweep", *flags, f"--epsilons={','.join(map(str, epsilons))}", f"--reps={reps}", f"--seed={seed}"]
    assert _run([*argv, f"--out={out}"]) == 0
    got = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2).tolist()
    assert got == _sweep_rows_from_the_library(case, seed, epsilons, reps)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--problem=quadratic", "--dim=2", "--x0=1e300,1e300", "--method=sass", "--oracle=exact"],
        ["sweep", "--method=sass", "--oracle=corruption", "--noise=none", "--dim=2", "--x0=1e300,1e300",
         "--epsilons=0.1", "--reps=3"],
        ["optimize", "--problem=logistic", "--dim=5", "--x0=1e200,1e200,1e200,1e200,1e200"],
    ],
)
def test_a_finite_x0_whose_objective_overflows_is_refused_before_running(tmp_path, capsys, monkeypatch, argv):
    # f (or grad f) overflows at a finite start point: the start point is
    # named once, with no RuntimeWarning and no replication index
    def no_loop(*args, **kwargs):
        raise AssertionError("the adaptive loop ran from a start point whose objective overflows")

    monkeypatch.setattr(framework, "_lockstep", no_loop)
    monkeypatch.setattr(complexity, "_lockstep", no_loop)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _run([*argv, f"--out={tmp_path / 'o.csv'}"]) == 1
    err = capsys.readouterr().err
    assert err == "error: the objective or its gradient norm is not finite at x0\n"
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


@pytest.mark.parametrize("command", ["walk", "hitting", "optimize", "sweep"])
def test_negative_seed_is_refused_with_the_package_message(tmp_path, capsys, command):
    # numpy's own "expected non-negative integer" never reaches the user
    assert _run([command, "--seed=-1", f"--out={tmp_path / 'o.csv'}"]) == 1
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer\n"
    assert not (tmp_path / "o.csv").exists()


def test_sweep_reports_inf_when_the_step_size_floor_underflows(tmp_path):
    # at p = 0.52 and gamma = 0.1 the floor alpha_star(2e5) is 0.0 in a double:
    # both bounds are inf, and the sweep still writes its row
    out = tmp_path / "s.csv"
    assert _run([
        "sweep", "--method=storm", "--epsilons=0.1", "--reps=2", "--sigma-f=0.001", "--m-c=0.01",
        "--gamma=0.1", "--delta0=0.24", "--delta1=0.24", "--horizon-c2=1000",
        "--max-iterations=200", "--seed=0", f"--out={out}",
    ]) == 0
    header, row = out.read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert (values["bound_expected"], values["bound_highprob"]) == ("inf", "inf")
    assert float(values["exceed_frac"]) == 0.0


def test_sweep_reports_inf_for_mean_costs_beyond_the_double_range(tmp_path):
    # at sigma_f = 1e149 the value batches pass 1e300 per call: six
    # replications' summed samples leave the double range at epsilon 0.1, and
    # the means are inf (summed as exact ints, rounded once), not an OverflowError
    out = tmp_path / "s.csv"
    assert _run([
        "sweep", "--method=storm", "--sigma-f=1e149", "--m-c=0.01", "--gamma=0.8", "--epsilons=1,0.1",
        "--reps=6", "--seed=0", f"--out={out}",
    ]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["mean_toc0"] for row in rows][1] == "inf"
    assert all(math.isfinite(float(row["mean_toc1"])) for row in rows)
    assert all(0.0 <= float(row["exceed_frac"]) <= 1.0 for row in rows)


@pytest.mark.parametrize("r_flag", [[], ["--r=0.1"]], ids=["default-r", "given-r"])
def test_sweep_refuses_a_degenerate_batch_constant_as_a_configuration_error(tmp_path, capsys, r_flag):
    # the suite's cost models are built before any replication runs, so the
    # message names no replication whether or not --r is given
    out = tmp_path / "s.csv"
    code = _run([
        "sweep", "--method=sass", "--oracle=minibatch", "--batch-c=0", *r_flag, "--epsilons=0.2",
        "--reps=3", f"--out={out}",
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: the batch multiplier must be positive\n"
    assert not out.exists()


def test_hitting_near_one_half_reports_an_infinite_bound(tmp_path):
    # at p = 1/2 + 1e-10 the overshoot constant c is inf: every bound with l >= 1 is inf
    out = tmp_path / "h.csv"
    assert _run([
        "hitting", "--p=0.5000000001", "--l-max=3", "--n=10", "--reps=10", "--seed=0", f"--out={out}",
    ]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[2] for row in rows] == ["1.00000000000000000e+00", "inf", "inf", "inf"]


def test_walk_and_sass_sweep_near_one_half_run(tmp_path):
    assert _run(_walk_args(tmp_path, p="0.5000000001", gamma="0.5", n="10", reps="10")) == 0
    summary = _walk_summary(tmp_path)[0]
    assert summary["failure_bound"] == 1.0
    assert summary["dip_exact"] == 0.0  # the dip level lies far above n
    out = tmp_path / "s.csv"
    assert _run([
        "sweep", "--method=sass", "--reliability-p=0.5000000001", "--epsilons=0.2", "--reps=2",
        "--seed=0", f"--out={out}",
    ]) == 0
    assert len(out.read_text().splitlines()) == 2


class _ReadKeys(dict):
    """The options of one run, recording every key the runner reads."""

    def __init__(self, opts, seen):
        super().__init__(opts)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)


def test_every_option_is_read_by_some_run(tmp_path, monkeypatch):
    # an option no run reads changes no output: it should not be settable
    seen = {command: set() for command in cli._RUNNERS}
    merge = cli._merge

    def recording_merge(args, table):
        return _ReadKeys(merge(args, table), seen[args.command])

    monkeypatch.setattr(cli, "_merge", recording_merge)
    small = ["--max-iterations=30", "--seed=0", f"--out={tmp_path / 'o.csv'}"]
    optimize = ["optimize", "--epsilon=0.1", *small]
    sweep = ["sweep", "--epsilons=0.2", "--reps=2", *small]
    runs = [
        [*optimize, "--method=storm", "--oracle=minibatch"],
        [*optimize, "--method=sass", "--oracle=minibatch"],
        [*optimize, "--method=sass", "--oracle=corruption"],
        [*sweep, "--method=storm", "--oracle=minibatch", "--gamma-policy=corollary"],
        [*sweep, "--method=sass", "--oracle=minibatch", "--mode=strongly_convex"],
        [*sweep, "--method=sass", "--oracle=corruption"],
        _walk_args(tmp_path, n="10", reps="10"),
        ["hitting", "--l-max=2", "--n=10", "--reps=10", f"--out={tmp_path / 'h.csv'}"],
    ]
    for argv in runs:
        assert _run(argv) == 0, argv
    for command, (table, _) in cli._RUNNERS.items():
        assert set(table) - seen[command] == set(), command


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--epsilon", "0.3"],  # sweep takes --epsilons only
        ["optimize", "--eps", "0.1"],  # a prefix of --epsilon is not an alias
        ["optimize", "--max-iter", "3"],
    ],
)
def test_undeclared_flags_are_refused(tmp_path, capsys, argv):
    assert _run([*argv, f"--out={tmp_path / 'o.csv'}"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_sweep_config_refuses_epsilon(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epsilon": 0.3}))
    assert _run(["sweep", f"--config={cfg}", f"--out={tmp_path / 's.csv'}"]) == 1
    assert "unknown config keys: ['epsilon']" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_main_reuses_one_parser_and_answers_as_a_fresh_one(tmp_path, capsys):
    # interleaved subcommands, bad flags and bad values give the outputs and
    # exit codes they give with a parser built for the call alone
    runs = [
        _walk_args(tmp_path, n="30", reps="50"),
        ["hitting", "--l-max=3", "--n=20", "--reps=50", "--bogus=1", f"--out={tmp_path / 'h.csv'}"],
        ["optimize", "--epsilon=0.1", "--max-iterations=20", f"--out={tmp_path / 'o.csv'}"],
        ["sweep", "--epsilons=0.2", "--reps=x", f"--out={tmp_path / 's.csv'}"],
        ["walk", "--n=10", "--rep=5", f"--out={tmp_path / 'w2.csv'}"],
        ["hitting", "--l-max=3", "--n=20", "--reps=50", f"--out={tmp_path / 'h.csv'}"],
        ["frobnicate"],
        [],
        ["sweep", "--epsilons=0.2", "--reps=2", "--max-iterations=30", f"--out={tmp_path / 's.csv'}"],
        _walk_args(tmp_path, n="30", reps="50", seed="-1"),
    ]

    def outcome(argv):
        code = _run(argv)
        files = {path.name: path.read_bytes() for path in sorted(tmp_path.glob("*.csv"))}
        for path in tmp_path.glob("*.csv"):
            path.unlink()
        return code, capsys.readouterr(), files

    cli._parser.cache_clear()
    shared = [outcome(argv) for argv in runs]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 0, 1, 1, 0, 1, 1, 0, 1]
