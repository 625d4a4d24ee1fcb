import argparse
import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from test_golden import CLI_CASES

import polarkit
from polarkit import scaling
from polarkit.cli import build_parser, main
from polarkit.polarcode import construct, simulate_bler

SUBCOMMANDS = (
    "channel-info",
    "transform",
    "spectrum",
    "construct",
    "codec-demo",
    "simulate",
    "polarize",
    "scaling-direct",
    "scaling-converse",
    "bootstrap",
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_channel_info_bec(capsys):
    code, out, _ = run(capsys, "channel-info", "bec:0.3")
    assert code == 0
    data = json.loads(out)
    assert data["I"] == pytest.approx(0.7, abs=1e-12)
    assert data["Z"] == pytest.approx(0.3, abs=1e-12)


def test_channel_info_from_file(tmp_path, capsys):
    path = tmp_path / "ch.json"
    path.write_text(json.dumps({"label": "mine", "outputs": [[0.7, 0.0], [0.0, 0.7], [0.3, 0.3]]}))
    code, out, _ = run(capsys, "channel-info", f"@{path}")
    assert code == 0
    assert json.loads(out)["Z"] == pytest.approx(0.3, abs=1e-12)


def test_channel_info_rejects_nan_file(tmp_path, capsys):
    path = tmp_path / "ch.json"
    path.write_text('{"outputs": [[NaN, 0.5], [1.0, 0.5]]}')
    code, out, err = run(capsys, "channel-info", f"@{path}")
    assert code == 1
    assert out == ""
    assert "output 0: W(y|0) = nan is not a finite number" in err


def test_transform_reports_both_halves(capsys):
    code, out, _ = run(capsys, "transform", "bec:0.3")
    assert code == 0
    data = json.loads(out)
    assert data["minus"]["Z"] == pytest.approx(0.51, abs=1e-10)
    assert data["plus"]["Z"] == pytest.approx(0.09, abs=1e-10)
    assert data["minus"]["outputs"] == 3


def test_transform_rejects_nan_merge_tolerance(capsys):
    code, out, err = run(capsys, "transform", "bsc:0.1", "--merge-tol", "nan")
    assert code == 1
    assert out == ""
    assert err == "polarkit: error: tolerance must be nonnegative, got nan\n"


def test_bootstrap_bound_exponent_past_double_range_is_an_error(capsys):
    # (n - m) beta = (3000 - 406) 0.4 >= 1024: 2^((n - m) beta) is no double.
    code, out, err = run(capsys, "bootstrap", "--n", "3000", "--beta", "0.4", "--trials", "10")
    assert code == 1
    assert out == ""
    assert err == (
        "polarkit: error: bound exponent 2^((n - m) beta) is out of double range at "
        "beta=0.4, n=3000, m=406: (n - m) * beta must stay below 1024\n"
    )


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_polarize_negative_steps_is_an_error(capsys, exact):
    code, out, err = run(capsys, "polarize", "--n", "-1", *(["--exact"] if exact else []))
    assert code == 1
    assert out == ""
    assert err == "polarkit: error: step count must be nonnegative, got -1\n"


@pytest.mark.parametrize("n", ["1024", "1030"])
@pytest.mark.parametrize("argv", [["polarize", "--exact", "--rule", "lower", "--n"],
                                  ["scaling-direct", "--rule", "lower", "--betas", "0.3", "--ns"]],
                         ids=["polarize", "scaling-direct"])
def test_exact_laws_past_n_1023_are_an_error(capsys, argv, n):
    # Past n = 1023 one atom's path count can pass 2^1024, which a double
    # cannot hold; curves that deep run by Monte Carlo.
    code, out, err = run(capsys, *argv, n)
    assert code == 1
    assert out == ""
    assert err == (f"polarkit: error: exact laws stop at n = 1023, past which path counts "
                   f"overflow a double; got n={n}; curves past it run with --mode mc\n")


@pytest.mark.parametrize("text", ["5", '"x"', "null"])
def test_channel_file_must_hold_an_object(tmp_path, capsys, text):
    path = tmp_path / "w.json"
    path.write_text(text + "\n")
    code, out, err = run(capsys, "channel-info", f"@{path}")
    assert code == 1
    assert out == ""
    assert err == ('polarkit: error: channel JSON must be an object with an "outputs" key, '
                   f"got {json.loads(text)!r}\n")


@pytest.mark.parametrize("outputs", [{"a": 1}, [["a", 1]], [[0.5, 0.5], [0.5]]])
def test_channel_file_outputs_must_be_numbers(tmp_path, capsys, outputs):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"outputs": outputs}))
    code, out, err = run(capsys, "channel-info", f"@{path}")
    assert code == 1
    assert out == ""
    assert err == f"polarkit: error: channel outputs must be an (M, 2) table of numbers, got {outputs!r}\n"


def test_exact_curve_past_53_steps_reads_at_most_one(capsys):
    code, out, _ = run(capsys, "scaling-direct", "--rule", "lower", "--ns", "1023,1000",
                       "--betas", "0.3,0.9")
    assert code == 0
    probs = [float(line.split(",")[3]) for line in out.splitlines()[2:]]
    assert len(probs) == 4 and max(probs) == 1.0


def test_spectrum_values(capsys):
    code, out, _ = run(capsys, "spectrum", "--eps", "0.5", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "index,z"
    values = [float(line.split(",")[1]) for line in lines[2:]]
    assert values == [0.9375, 0.5625, 0.4375, 0.0625]


def test_construct_json_schema(capsys):
    code, out, _ = run(capsys, "construct", "--eps", "0.5", "--n", "2", "--rate", "0.25")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"n", "eps", "rate", "info_set", "gamma", "union_bound"}
    assert data["info_set"] == [3]
    assert data["gamma"] == 0.0625


def test_codec_demo_round_trip(capsys):
    code, out, _ = run(
        capsys, "codec-demo", "--eps", "0.2", "--n", "4", "--rate", "0.5", "--seed", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 3
    assert len(data["codeword"]) == 16


def test_simulate_deterministic_and_echoes_seed(capsys):
    args = ("simulate", "--eps", "0.5", "--n", "4", "--rate", "0.25",
            "--trials", "2000", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "# seed=7" in out1
    assert out1.splitlines()[1] == "trial_count,failures,bler,ci_low,ci_high"


def test_simulate_csv(capsys):
    code, out, _ = run(capsys, "simulate", "--eps", "0.3", "--n", "3", "--rate", "0.5",
                       "--trials", "1000", "--seed", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "trial_count,failures,bler,ci_low,ci_high"
    fields = lines[2].split(",")
    assert int(fields[0]) == 1000
    assert int(fields[1]) == simulate_bler(construct(0.3, 3, 0.5), 0.3, 1000, seed=2).failures


def test_polarize_trajectory(capsys):
    code, out, _ = run(capsys, "polarize", "--z0", "0.5", "--n", "5", "--seed", "2")
    assert code == 0
    lines = out.splitlines()
    assert "seed=2" in lines[0]
    assert lines[1] == "step,log2_z,log2_1mz,z"
    assert len(lines) == 8  # comment + header + 6 states


def test_polarize_exact_distribution(capsys):
    code, out, _ = run(capsys, "polarize", "--z0", "0.5", "--n", "1", "--exact")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# z0=0.5 n=1 rule=extremal"
    assert lines[2] == "0.25,0.5,-2.0"


def test_distribution_csv(capsys):
    code, out, _ = run(capsys, "polarize", "--z0", "0.5", "--n", "1", "--exact")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# z0=0.5 n=1 rule=extremal"
    assert lines[1] == "value,prob,log2_value"
    assert lines[2] == "0.25,0.5,-2.0"
    assert lines[3] == f"0.75,0.5,{math.log2(0.75)!r}"


def test_polarize_exact_upper_tail_stays_below_one(capsys):
    code, out, _ = run(capsys, "polarize", "--z0", "0.3", "--n", "12", "--exact")
    assert code == 0
    values = [float(line.split(",")[0]) for line in out.splitlines()[2:]]
    assert len(values) > 1000
    assert max(values) <= 1.0


def test_polarize_exact_keeps_atoms_next_to_one_apart(capsys):
    # Hundreds of atoms have 1 - z < 2^-53 and print value 1.0; the stored
    # log2 z column still tells every atom apart.
    code, out, _ = run(capsys, "polarize", "--z0", "0.3", "--n", "12", "--exact")
    assert code == 0
    assert out.splitlines()[1] == "value,prob,log2_value"
    rows = [line.split(",") for line in out.splitlines()[2:]]
    at_one = [r for r in rows if r[0] == "1.0"]
    assert len(at_one) > 100
    assert len({r[2] for r in rows}) == len(rows)
    assert all(float(r[0]) == np.exp2(float(r[2])) for r in rows)


def test_scaling_direct_csv(capsys, tmp_path):
    out_path = tmp_path / "direct.csv"
    code, out, _ = run(
        capsys, "scaling-direct", "--z0", "0.5", "--betas", "0.45", "--ns", "0,4",
        "--out", str(out_path), "--gnuplot",
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[1] == "n,beta,threshold_log2,probability,bound,stderr"
    assert len(lines) == 4
    assert (tmp_path / "direct.csv.gp").exists()


def test_rows_to_csv_schema(capsys):
    code, out, _ = run(capsys, "scaling-direct", "--z0", "0.5", "--betas", "0.45", "--ns", "0,4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# direct z0=0.5 mode=exact rule=extremal trials=100000 seed=0"
    assert lines[1] == "n,beta,threshold_log2,probability,bound,stderr"
    assert len(lines) == 4


def test_gnuplot_script_references_csv(capsys, tmp_path):
    csv = tmp_path / "curve.csv"
    code, _, _ = run(capsys, "scaling-converse", "--betas", "0.55", "--ns", "4",
                     "--out", str(csv), "--gnuplot")
    assert code == 0
    script = (tmp_path / "curve.csv.gp").read_text()
    assert 'set title "converse"' in script
    # Columns 4 and 5 of the curve header: probability and bound.
    assert f'plot "{csv}" every ::1 using 1:4 with linespoints title "probability"' in script
    assert f'"{csv}" every ::1 using 1:5 with lines title "bound"' in script


def test_scaling_converse_runs(capsys):
    code, out, _ = run(
        capsys, "scaling-converse", "--z0", "0.5", "--betas", "0.55", "--ns", "10",
        "--mode", "exact",
    )
    assert code == 0
    row = out.splitlines()[2].split(",")
    assert float(row[4]) == 638 / 1024


def test_bootstrap_json(capsys):
    code, out, _ = run(
        capsys, "bootstrap", "--n", "100", "--beta", "0.4", "--trials", "500",
        "--seed", "5",
    )
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 32 and data["a_n"] == 10 and data["k"] == 6
    assert data["seed"] == 5
    assert data["domination_violations"] == 0


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "spectrum", "--eps", "0.5", "--n", "2", "--bogus")
    assert code == 1
    assert "usage" in err


def test_unknown_channel_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "channel-info", "awgn:1.0")
    assert code == 1
    assert "bec:<eps>" in err


def test_cap_exceeded_exits_2_naming_flag(capsys):
    code, _, err = run(capsys, "spectrum", "--eps", "0.5", "--n", "30")
    assert code == 2
    assert "--spectrum-cap" in err
    code, _, err = run(capsys, "polarize", "--z0", "0.5", "--n", "30", "--exact",
                       "--enum-cap", "1000")
    assert code == 2
    assert "--enum-cap" in err
    for curve in ("scaling-direct", "scaling-converse"):
        code, out, err = run(capsys, curve, "--ns", "30", "--enum-cap", "1000")
        assert (code, out) == (2, "")
        assert "--enum-cap" in err


def test_raising_cap_flag_works(capsys):
    # LOWER-rule law has only n+1 atoms, so the raised cap is cheap to probe:
    # level 25 has 50 children.
    code, out, _ = run(
        capsys, "polarize", "--z0", "0.5", "--n", "25", "--rule", "lower",
        "--exact", "--enum-cap", "50",
    )
    assert code == 0
    assert len(out.splitlines()) == 2 + 26


def test_lower_law_needs_no_budget_flag(capsys):
    code, out, _ = run(capsys, "polarize", "--n", "200", "--rule", "lower", "--exact")
    assert code == 0
    assert len(out.splitlines()) == 2 + 201


def test_cap_errors_name_cli_options():
    # Every flag a ResourceCapError names in src/polarkit is an option of the CLI.
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for p in sub.choices.values() for a in p._actions for o in a.option_strings}
    flags = [
        kw.value.value
        for path in Path(polarkit.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ResourceCapError"
        for kw in node.keywords if kw.arg == "flag"
    ]
    assert sorted(set(flags)) == ["--alphabet-cap", "--enum-cap", "--spectrum-cap"]
    assert set(flags) <= options


def test_threshold_out_of_double_range_is_usage_error(capsys):
    # 2^(beta n) = 2^1050 overflows a double; the grid is rejected before
    # any path is sampled, with a message instead of a traceback.
    code, out, err = run(
        capsys, "scaling-direct", "--mode", "mc", "--ns", "2100", "--betas", "0.5",
        "--trials", "10",
    )
    assert code == 1
    assert out == ""
    assert "beta=0.5, n=2100" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, beta",
    [
        (["scaling-direct", "--betas", "nan", "--ns", "8,12"], "nan"),
        (["scaling-direct", "--betas", "0.3,nan", "--ns", "8"], "nan"),
        (["scaling-direct", "--betas", "inf", "--ns", "0"], "inf"),
        (["scaling-converse", "--betas", "nan"], "nan"),
        (["scaling-converse", "--betas", "inf", "--ns", "0"], "inf"),
    ],
)
def test_non_finite_beta_is_an_error(capsys, argv, beta):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"polarkit: error: beta must be finite and positive, got {beta}\n"


def test_monte_carlo_past_double_range_is_quiet(capsys):
    # After about 1024 squarings a path's log2 z passes -2^1024 and becomes
    # -inf, which is z = 0: a correct value, reached without a warning.
    code, out, err = run(
        capsys, "scaling-direct", "--mode", "mc", "--ns", "2100", "--betas", "0.4",
        "--trials", "10",
    )
    assert code == 0
    assert err == ""
    assert out == (
        "# direct z0=0.5 mode=mc rule=extremal trials=10 seed=0\n"
        "n,beta,threshold_log2,probability,bound,stderr\n"
        "2100,0.4,-7.33155940312959e+252,0.5,0.5,0.15811388300841897\n"
    )


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["polarize", "--z0", "0.5", "--n", "8", "--exact"],
        ["scaling-direct", "--ns", "8"],
        ["scaling-converse", "--ns", "8", "--betas", "0.6"],
        ["scaling-direct", "--mode", "mc", "--ns", "8", "--trials", "10"],
    ],
    ids=["polarize-exact", "scaling-direct", "scaling-converse", "scaling-direct-mc"],
)
def test_enum_cap_below_one_is_an_error(capsys, argv, cap):
    # Refused as --threads 0 is, not reported as a level over the budget.
    code, out, err = run(capsys, *argv, "--enum-cap", cap)
    assert (code, out) == (1, "")
    assert err == f"polarkit: error: enum cap must be at least 1, got {cap}\n"


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--eps", "0.4", "--n", "4", "--rate", "0.5", "--trials", "10"],
        ["scaling-direct", "--mode", "mc", "--ns", "4", "--betas", "0.4", "--trials", "10"],
        ["scaling-direct", "--ns", "8"],
        ["scaling-converse", "--ns", "8"],
    ],
    ids=["simulate", "scaling-direct-mc", "scaling-direct-exact", "scaling-converse-exact"],
)
def test_threads_below_one_is_an_error(capsys, argv, threads):
    code, out, err = run(capsys, *argv, "--threads", threads)
    assert code == 1
    assert out == ""
    assert err == f"polarkit: error: threads must be at least 1, got {threads}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--eps", "0.4", "--n", "4", "--rate", "0.5"],
        ["bootstrap", "--n", "16", "--beta", "0.4"],
        ["scaling-direct", "--mode", "mc", "--ns", "4", "--betas", "0.4"],
        ["scaling-direct", "--ns", "8"],
    ],
    ids=["simulate", "bootstrap", "scaling-direct-mc", "scaling-direct-exact"],
)
def test_trials_below_one_is_an_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--trials", "0")
    assert code == 1
    assert out == ""
    assert err == "polarkit: error: need at least one trial, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["codec-demo", "--eps", "0.2", "--n", "4", "--rate", "0.5"],
        ["simulate", "--eps", "0.4", "--n", "4", "--rate", "0.5", "--trials", "10"],
        ["polarize", "--n", "5"],
        ["scaling-direct", "--mode", "mc", "--ns", "4", "--betas", "0.4", "--trials", "10"],
        ["scaling-converse", "--mode", "mc", "--ns", "4", "--betas", "0.6", "--trials", "10"],
        ["bootstrap", "--n", "16", "--beta", "0.4", "--trials", "10"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_seed_is_a_usage_error_naming_the_flag(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 1
    assert out == ""
    assert "argument --seed: expected a non-negative integer, got '-1'" in err
    assert "Traceback" not in err


def test_gnuplot_without_out_is_usage_error(capsys, monkeypatch):
    # Rejected before the curve is computed, and nothing reaches stdout.
    monkeypatch.setattr(scaling, "direct_curve", lambda cfg: pytest.fail("curve computed"))
    code, out, err = run(capsys, "scaling-direct", "--ns", "2", "--gnuplot")
    assert code == 1
    assert out == ""
    assert "--out" in err


def test_every_subcommand_has_help(capsys):
    for name in SUBCOMMANDS:
        code, out, _ = run(capsys, name, "--help")
        assert code == 0
        assert "--out" in out


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "info.json"
    code, out, _ = run(capsys, "channel-info", "bec:0.4", "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["Z"] == pytest.approx(0.4, abs=1e-12)


CSV_HEADERS = {
    "scaling-direct": "n,beta,threshold_log2,probability,bound,stderr",
    "scaling-converse": "n,beta,threshold_log2,probability,bound,stderr",
    "simulate": "trial_count,failures,bler,ci_low,ci_high",
    "polarize": "step,log2_z,log2_1mz,z",
    "polarize --exact": "value,prob,log2_value",
    "spectrum": "index,z",
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_out_flag_writes_the_stdout_bytes(name, tmp_path, capsys):
    argv = CLI_CASES[name]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "out.txt"
    code, to_stdout, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert to_stdout == ""
    assert path.read_bytes() == out.encode("utf-8")
    header = CSV_HEADERS.get("polarize --exact" if "--exact" in argv else argv[0])
    if header is None:  # one JSON object
        assert out.count("\n") == 1
        json.loads(out)
    else:
        lines = out.splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == header
        assert not any(line.startswith("#") for line in lines[1:])


def test_parser_lists_all_subcommands():
    parser = build_parser()
    assert build_parser() is parser  # built once per process
    help_text = parser.format_help()
    for name in SUBCOMMANDS:
        assert name in help_text
