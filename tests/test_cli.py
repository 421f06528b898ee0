import json
import os
import subprocess
import sys

import pytest

from latsurj import cli
from latsurj.cli import main

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(args, env_extra=None):
    """Run the CLI in-process, capturing stdout; returns (exit, stdout)."""
    import contextlib
    import io

    buf = io.StringIO()
    err = io.StringIO()
    old_env = {}
    if env_extra:
        for k, v in env_extra.items():
            old_env[k] = os.environ.get(k)
            os.environ[k] = v
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        for k, v in old_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, buf.getvalue(), err.getvalue()


def test_sample_round_trip_determinism(tmp_path):
    code1, out1, _ = run_cli(["sample", "--n", "4", "--m", "6", "--seed", "9"])
    code2, out2, _ = run_cli(["sample", "--n", "4", "--m", "6", "--seed", "9"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "4 6"


def test_sample_pipe_certify(tmp_path):
    path = tmp_path / "m.txt"
    code, out, _ = run_cli(["sample", "--n", "3", "--m", "6", "--seed", "1", "--out", str(path)])
    assert code == 0
    code, out, _ = run_cli(["certify", str(path), "--verify"])
    doc = json.loads(out)
    assert doc["verdict"] in {"surjective", "not_surjective"}
    assert doc["verified"] is True
    assert code == (0 if doc["verdict"] == "surjective" else 1)


def test_certify_identity(tmp_path):
    path = tmp_path / "id.txt"
    path.write_text("2 2\n1 0\n0 1\n")
    code, out, _ = run_cli(["certify", str(path)])
    assert code == 0
    assert json.loads(out)["verdict"] == "surjective"


def test_certify_not_surjective_exit_code(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("1 1\n2\n")
    code, out, _ = run_cli(["certify", str(path)])
    assert code == 1
    doc = json.loads(out)
    assert doc["modulus"] == 2


def test_certify_square_not_surjective_exit_code(tmp_path):
    # diag(2, 3): a row of its adjugate annihilates it modulo det = 6
    path = tmp_path / "square.txt"
    path.write_text("2 2\n2 0\n0 3\n")
    code, out, _ = run_cli(["certify", str(path), "--verify"])
    assert code == 1
    doc = json.loads(out)
    assert (doc["verdict"], doc["modulus"], doc["annihilator"], doc["verified"]) == ("not_surjective", 6, [3, 0], True)


def test_snf_output(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("2 2\n2 0\n0 3\n")
    code, out, _ = run_cli(["snf", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["invariant_factors"] == [6]
    code, out, _ = run_cli(["snf", str(path), "--full"])
    assert code == 0
    assert "# left" in out and "# right" in out


def test_predict_output():
    code, out, _ = run_cli(["predict", "corank", "--q", "2", "--k", "0"])
    assert code == 0
    assert out.startswith("0.288788095")
    assert "tail_bound=" in out
    code, out, _ = run_cli(["predict", "trivial", "--u", "2"])
    assert out.startswith("0.716791660")
    code, out, _ = run_cli(["predict", "trivial", "--u", "1", "--primes", "2,3"])
    assert code == 0


def test_experiment_json_report(tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        [
            "experiment", "corank", "--n", "8", "--p", "2", "--trials", "40",
            "--seed", "5", "--tolerance", "0.5", "--out", str(out_path),
        ]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["config"]["experiment"] == "corank_dist"
    assert doc["meta"]["invocation"][0] == "experiment"
    assert any(o["label"] == "corank=0" for o in doc["outcomes"])


def test_experiment_failure_exit_code(tmp_path):
    # impossible tolerance forces a failing check
    code, out, _ = run_cli(
        [
            "experiment", "corank", "--n", "8", "--p", "2", "--trials", "40",
            "--seed", "5", "--tolerance", "0.0",
        ]
    )
    assert code == 1


def test_experiment_csv_format():
    code, out, _ = run_cli(
        [
            "experiment", "corank", "--n", "6", "--p", "2", "--trials", "10",
            "--seed", "5", "--tolerance", "0.9", "--format", "csv",
        ]
    )
    assert code == 0
    assert out.splitlines()[0].startswith("label,count,freq")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "corank", "--n", "8", "--bogus-flag", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense-command"])
    assert exc.value.code == 2


def test_bad_value_exit_2(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 0\n")
    code, _, err = run_cli(["certify", str(path)])
    assert code == 2
    assert "error:" in err


def test_overflowing_support_exit_2():
    code, _, err = run_cli(
        ["experiment", "corank", "--n", "4", "--p", "2",
         "--dist", "0:1/2,4611686018427387904:1/2", "--trials", "3"]
    )
    assert code == 2
    assert err.splitlines()[-1].startswith("error:")


def test_weight_denominator_beyond_the_sampler_exit_2():
    d = 2**63 + 1
    code, out, err = run_cli(
        ["experiment", "corank", "--n", "4", "--p", "2", "--dist", f"0:1/{d},1:{d - 1}/{d}", "--trials", "3"]
    )
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"error: weight denominator {d} exceeds the sampler's limit of 2^63"


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "corank", "--n", "4", "--p", "2", "--dist", "0:1/0"],
        ["experiment", "corank", "--n", "4", "--p", "2", "--dist", "bernoulli(1/0)"],
        ["fourier", "check", "--q", "4", "--mu", "1/0,1,0,0"],
    ],
)
def test_zero_denominator_exit_2(argv):
    # exit 1 would read as a failed check; the message names the option and the weight
    code, out, err = run_cli(argv)
    option = argv[-2]
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == f"error: {option}: weight '1/0' has a zero denominator"


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--B", "-1"], "error: B must be positive, got -1.0"),
        (["--B", "0"], "error: B must be positive, got 0.0"),
        (["--tolerance", "nan"], "error: tolerance must be finite and non-negative, got nan"),
        (["--tolerance", "-0.1"], "error: tolerance must be finite and non-negative, got -0.1"),
    ],
)
def test_bad_budget_or_tolerance_exit_2(flags, message):
    # B = -1 used to run with a negative budget and tolerance nan to fail every check
    code, out, err = run_cli(["experiment", "exposure", "--n", "4", "--trials", "3", *flags])
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == message


@pytest.mark.parametrize("exc", [RuntimeError("broken invariant"), OverflowError("too large")])
def test_internal_errors_exit_2(monkeypatch, exc):
    def fail(cfg):
        raise exc

    monkeypatch.setattr(cli, "run_experiment", fail)
    code, _, err = run_cli(["experiment", "corank", "--n", "4", "--p", "2", "--trials", "3"])
    assert code == 2
    assert err.splitlines()[-1] == f"error: {exc}"


@pytest.mark.parametrize(
    "argv", [["singularity", "--mode", "mod-p", "--p", "2"], ["trivial", "--mode", "p-restricted", "--primes", "2"]]
)
def test_unknown_experiment_mode_exit_2(argv):
    code, out, err = run_cli(["experiment", *argv, "--n", "4", "--trials", "3"])
    assert code == 2 and "unknown mode" in err.splitlines()[-1]
    assert out == ""


def test_predict_corank_rejects_non_prime_power_exit_2():
    code, out, err = run_cli(["predict", "corank", "--q", "6", "--k", "0"])
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "error: q must be a prime power >= 2"
    assert run_cli(["predict", "corank", "--q", "9", "--k", "0"])[0] == 0


def test_prime_set_outside_p_restricted_exit_2():
    # all_primes runs the certifier, so a prime set would be recorded but ignored
    argv = ["experiment", "trivial", "--n", "6", "--u", "1", "--trials", "20", "--primes", "2", "--mode", "all_primes"]
    code, out, err = run_cli(argv)
    assert code == 2 and "prime set" in err.splitlines()[-1]
    assert out == ""


def test_threads_default_to_one():
    args = cli.build_parser().parse_args(["experiment", "corank", "--n", "4", "--p", "2"])
    assert args.threads == 1


def test_config_file_and_env_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials=15\nseed=4\n")
    code, out, err = run_cli(
        ["--config", str(cfg), "experiment", "corank", "--n", "6", "--p", "2",
         "--tolerance", "0.9"]
    )
    assert code == 0
    assert '"trials": 15' in err  # resolved config is logged
    # env overrides config, flags override env
    code, out, err = run_cli(
        ["--config", str(cfg), "experiment", "corank", "--n", "6", "--p", "2",
         "--tolerance", "0.9"],
        env_extra={"LATSURJ_TRIALS": "25"},
    )
    assert '"trials": 25' in err
    code, out, err = run_cli(
        ["--config", str(cfg), "experiment", "corank", "--n", "6", "--p", "2",
         "--tolerance", "0.9", "--trials", "35"],
        env_extra={"LATSURJ_TRIALS": "25"},
    )
    assert '"trials": 35' in err


TRIVIAL_ARGV = ["experiment", "trivial", "--n", "4", "--u", "1", "--trials", "5", "--tolerance", "0.9"]


def test_overrides_leave_the_experiment_kind_alone(tmp_path):
    # the kind of an experiment is a positional argument, not an option flag
    code, out, _ = run_cli(TRIVIAL_ARGV, env_extra={"LATSURJ_KIND": "corank"})
    assert code == 0 and json.loads(out)["config"]["experiment"] == "trivial_cokernel"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind=corank\n")
    code, out, _ = run_cli(["--config", str(cfg), *TRIVIAL_ARGV])
    assert code == 0 and json.loads(out)["config"]["experiment"] == "trivial_cokernel"
    # it used to end in a KeyError traceback
    code, out, _ = run_cli(TRIVIAL_ARGV, env_extra={"LATSURJ_KIND": "bogus"})
    assert code == 0 and json.loads(out)["config"]["experiment"] == "trivial_cokernel"


@pytest.mark.parametrize(
    "argv,env",
    [
        (TRIVIAL_ARGV, {"LATSURJ_FORMAT": "xml"}),
        (["sample", "--n", "3"], {"LATSURJ_KIND": "bogus"}),
        (["experiment", "corank", "--n", "4", "--p", "2"], {"LATSURJ_TRIALS": "many"}),
    ],
)
def test_override_outside_the_flag_choices_or_type_exit_2(argv, env):
    code, out, err = run_cli(argv, env_extra=env)
    (name,) = env
    assert code == 2 and err.splitlines()[-1].startswith(f"error: {name}=")
    assert out == ""


def test_malformed_override_beside_its_flag_exit_2():
    # overrides are the subcommand's defaults, each checked even where a flag wins
    code, out, err = run_cli(
        ["experiment", "corank", "--n", "4", "--p", "2", "--trials", "3"], env_extra={"LATSURJ_TRIALS": "many"}
    )
    assert code == 2 and err.splitlines()[-1].startswith("error: LATSURJ_TRIALS=")
    assert out == ""


@pytest.mark.parametrize("line", ["sed=4", "n=5"])
def test_unknown_config_key_exit_2(tmp_path, line):
    # a misspelt key, or one no override may set, is named rather than ignored
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(["--config", str(cfg), "sample", "--n", "2"])
    key = line.split("=")[0]
    assert code == 2 and err.splitlines()[-1].startswith(f"error: unknown config key '{key}'")
    assert "seed" in err.splitlines()[-1]
    assert out == ""


def test_config_key_the_subcommand_lacks_is_ignored(tmp_path):
    # one config file may serve several subcommands
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials=5\n")
    assert run_cli(["--config", str(cfg), "sample", "--n", "2"])[:2] == run_cli(["sample", "--n", "2"])[:2]


def test_overrides_set_only_optional_flags(tmp_path):
    # argparse demands a required flag before any override is read, so
    # every overridable name is an optional flag of some subcommand
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command").choices.values()
    actions = [a for p in subparsers for a in p._actions if a.dest in cli._OVERRIDABLE and a.option_strings]
    assert {a.dest for a in actions} == set(cli._OVERRIDABLE)
    assert not any(a.required for a in actions)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=5\n")
    for extra, env in (([], {"LATSURJ_N": "5"}), (["--config", str(cfg)], None)):
        with pytest.raises(SystemExit) as exc:
            run_cli([*extra, "sample"], env_extra=env)
        assert exc.value.code == 2


def test_sample_kind_still_overridable():
    explicit = run_cli(["sample", "--n", "3", "--u", "1", "--kind", "symmetric_plus"])
    assert explicit[0] == 0
    assert run_cli(["sample", "--n", "3", "--u", "1"], env_extra={"LATSURJ_KIND": "symmetric_plus"})[:2] == explicit[:2]
    assert run_cli(["sample", "--n", "3", "--u", "1"])[1] != explicit[1]


@pytest.mark.parametrize("flag", [["--tri", "3"], ["--tri=3"], ["--trials=3"]])
def test_abbreviated_flag_beats_overrides(tmp_path, flag):
    # argparse takes a unique prefix of a flag; the flag is still explicit
    argv = ["experiment", "corank", "--n", "4", "--p", "2", "--tolerance", "0.9", *flag]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials=5\n")
    for extra, env in (([], {"LATSURJ_TRIALS": "7"}), (["--config", str(cfg)], None)):
        code, out, err = run_cli(extra + argv, env_extra=env)
        assert code == 0 and '"trials": 3' in err
        assert json.loads(out)["config"]["trials"] == 3


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2(threads):
    code, out, err = run_cli(["experiment", "corank", "--n", "4", "--p", "2", "--trials", "3", "--threads", threads])
    assert code == 2 and err.splitlines()[-1] == "error: threads must be at least 1"
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "corank", "--n", "10", "--p", "2", "--trials", "5", "--seed", "-1"],
        ["sample", "--n", "3", "--seed", "-1"],
    ],
)
def test_negative_seed_exit_2(argv):
    code, out, err = run_cli(argv)
    assert code == 2 and err.splitlines()[-1] == "error: seed must be a non-negative integer, got -1"
    assert out == ""


def test_exposure_csv_rows_per_run():
    code, out, _ = run_cli(
        [
            "experiment", "exposure", "--n", "8", "--dist", "uniform01", "--B", "1.5",
            "--trials", "6", "--seed", "3", "--format", "csv",
        ]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "seed,d0_per_modulus,batches,total_extra_columns,achieved"
    assert len(lines) == 7  # header + one row per run
    assert all(len(line.split(",")) == 5 for line in lines[1:])


@pytest.mark.parametrize(
    "argv",
    [
        # a 100-bit cofactor of det(m0) in the first trial
        ["--n", "25", "--dist", "0:1/2,6:1/4,35:1/4", "--B", "1.5", "--trials", "1", "--seed", "5"],
        # a 164-bit cofactor in the sixth trial
        ["--n", "100", "--trials", "6", "--seed", "7"],
    ],
)
def test_exposure_with_unfactorable_determinants_completes(argv):
    code, out, _ = run_cli(["experiment", "exposure", *argv])
    assert code == 0
    report = json.loads(out)
    assert len(report["runs"]) == int(argv[argv.index("--trials") + 1])


def test_exposure_without_a_nonsingular_start_exits_2():
    code, _, err = run_cli(["experiment", "exposure", "--n", "3", "--dist", "bernoulli(1/1000000)", "--trials", "1"])
    assert code == 2 and "all 1000 starting matrices were singular" in err


def test_fourier_check_command():
    code, out, _ = run_cli(
        ["fourier", "check", "--q", "3", "--mu", "1/2,1/2,0", "--w", "1,1,1,1",
         "--r", "0", "--v", "0.5", "--k", "2"]
    )
    assert code == 0
    assert "lo_bound:" in out and "holds=True" in out


def test_fourier_check_beyond_q_512():
    mu = ",".join(["1/2", "1/4", "1/4"] + ["0"] * 518)
    code, out, _ = run_cli(["fourier", "check", "--q", "521", "--mu", mu, "--w", "1,2,3", "--r", "0"])
    assert code == 0
    assert out.splitlines() == [
        "lo_bound: lhs=0.123081 rhs=1.63299 holds=True",
        "level_set_nesting(v=0.5, k=2): holds=True",
        "spectrum_subgroup: alpha=1/2 hypothesis_ok=True holds=True",
    ]


@pytest.mark.parametrize("q,w,r", [("3", "1,1", "7"), ("3", "1,1", "-1"), ("4", "-1", "0"), ("4", "1,4", "0")])
def test_fourier_check_rejects_values_outside_the_field(q, w, r):
    mu = ",".join(["1/" + q] * int(q))
    code, out, err = run_cli(["fourier", "check", "--q", q, "--mu", mu, "--w", w, "--r", r])
    assert code == 2 and err.splitlines()[-1].startswith("error:")
    assert out == ""


@pytest.mark.parametrize("q", ["-4", "1", "4097"])
def test_fourier_check_rejects_orders_outside_the_tables(q):
    code, out, err = run_cli(["fourier", "check", "--q", q, "--mu", "1/2,1/2,0,0", "--w", "1", "--r", "0"])
    assert code == 2 and err.splitlines()[-1] == f"error: field order q = {q} must lie in [2, 4096]"
    assert out == ""


def test_fourier_sweep_command():
    code, out, _ = run_cli(
        ["fourier", "sweep", "--q-list", "2,3", "--max-m", "3", "--max-den", "3",
         "--kneser-n", "5", "--cosine-instances", "2000", "--nesting-pairs", "20"]
    )
    assert code == 0
    assert "violations" in out


def test_entrypoint_subprocess_round_trip():
    # the installed console script path: python -m latsurj.cli
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "latsurj.cli", "predict", "corank", "--q", "3", "--k", "1"],
        capture_output=True,
        text=True,
        env=env,
        cwd=PKG_ROOT,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("0.420094558")


def test_threads_do_not_change_output(tmp_path):
    outs = []
    for threads in ("1", "4"):
        out_path = tmp_path / f"rep{threads}.json"
        code, _, _ = run_cli(
            [
                "experiment", "trivial", "--n", "6", "--u", "1", "--trials", "30",
                "--seed", "11", "--tolerance", "0.9", "--threads", threads,
                "--out", str(out_path),
            ]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        doc.pop("runtime_ms")
        doc.pop("meta")
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]
