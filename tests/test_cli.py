import json
from pathlib import Path

import pytest

from classinv import checks, cli
from classinv.catalog import case_names

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_TEXT = ROOT / "perfbench" / "reference" / "verify_all.txt"
GOLDEN_JSON_PMAX3 = Path(__file__).resolve().parent / "golden" / "run_all_pmax3.json"


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_cases(capsys):
    code, out, _ = run_cli(["run", "--list-cases"], capsys)
    assert code == 0
    listed = out.strip().splitlines()
    assert listed == case_names()


def test_unknown_case_exits_2(capsys):
    code, _, err = run_cli(["run", "--case", "nonexistent"], capsys)
    assert code == 2
    assert "unknown case" in err


def test_negative_pmax_exits_2(capsys):
    for args in (["--case", "gl2"], ["--all"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", *args, "--pmax", "-1"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --pmax: must be nonnegative, got -1" in err


def test_run_case_and_run_all_reject_negative_pmax():
    with pytest.raises(ValueError, match="pmax must be nonnegative"):
        checks.run_case("gl2", pmax=-1)
    with pytest.raises(ValueError, match="pmax must be nonnegative"):
        checks.run_all(pmax=-1, names=["gl2"])
    # zero is a valid bound: every Hilbert check covers degree 0
    assert checks.run_case("gl2", pmax=0).passed


def test_no_selection_exits_2(capsys):
    code, _, err = run_cli(["run"], capsys)
    assert code == 2


def test_single_case_text_deterministic(capsys):
    code1, out1, _ = run_cli(["run", "--case", "gl2", "--pmax", "3"], capsys)
    code2, out2, _ = run_cli(["run", "--case", "gl2", "--pmax", "3"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "case gl2" in out1


def test_json_schema(capsys):
    code, out, _ = run_cli(["run", "--case", "glnil-1-1-1", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list) and data[0]["case"] == "glnil-1-1-1"
    for check in data[0]["checks"]:
        assert set(check) == {"name", "citation", "expected", "computed", "verdict", "ms"}
        assert check["verdict"] in ("pass", "fail", "unsupported")


def test_failing_case_exits_1(capsys):
    # the two-component intersection display for the hyperbolic-plane case
    # is provably short one embedded component; the faithful check fails
    code, out, _ = run_cli(["run", "--case", "o2"], capsys)
    assert code == 1
    assert "component-intersection" in out


def reference_check_names():
    """Check names per case, read off the recorded `run --all` text."""
    names = {}
    for line in REFERENCE_TEXT.read_text().splitlines():
        if line.startswith("case "):
            current = names.setdefault(line[len("case "):], [])
        elif line.startswith("  ["):
            current.append(line.split("] ", 1)[1].split(":", 1)[0])
    return names


def test_time_budget_marks_unsupported(capsys):
    code, out, _ = run_cli(
        ["run", "--case", "gl3", "--time-budget", "0", "--format", "json"], capsys
    )
    data = json.loads(out)
    assert all(c["verdict"] == "unsupported" for c in data[0]["checks"])
    assert code == 1  # unsupported is not a pass

    code, out, _ = run_cli(["run", "--all", "--time-budget", "0", "--format", "json"], capsys)
    data = json.loads(out)
    assert code == 1
    assert all(c["verdict"] == "unsupported" for r in data for c in r["checks"])
    listed = {r["case"]: [c["name"] for c in r["checks"]] for r in data}
    assert listed == reference_check_names()


@pytest.mark.parametrize(
    "budget, message",
    [
        ("-1", "must be nonnegative, got -1.0"),
        ("nan", "must be finite, got nan"),
        ("inf", "must be finite, got inf"),
        ("soon", "invalid float value: 'soon'"),
    ],
)
def test_time_budget_must_be_finite_and_nonnegative(budget, message, capsys):
    # a negative budget would mark every check unsupported, and nan would
    # never expire: both are usage errors, like an infinite one and a word
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--case", "gl2", "--time-budget", budget])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --time-budget: {message}" in err


def test_run_all_text_matches_reference(capsys):
    code, out, _ = run_cli(["run", "--all"], capsys)
    assert code == 1  # the o2 component-intersection check fails by design
    assert out == REFERENCE_TEXT.read_text()


def test_run_all_json_matches_golden(capsys):
    code, out, _ = run_cli(["run", "--all", "--pmax", "3", "--format", "json"], capsys)
    assert code == 1
    data = json.loads(out)
    for report in data:
        for c in report["checks"]:
            del c["ms"]
    assert data == json.loads(GOLDEN_JSON_PMAX3.read_text())


def test_degenerate_command(capsys):
    code, out, _ = run_cli(
        ["degenerate", "--case", "so3-I1", "--weights=-3,-1,-1"], capsys
    )
    assert code == 0
    assert "equal to I1: True" in out


def test_tangent_command(capsys):
    code, out, _ = run_cli(["tangent", "--case", "o2"], capsys)
    assert code == 0
    assert "rank of the pairing matrix: 2" in out


def test_dims_command(capsys):
    code, out, _ = run_cli(["dims", "--situation", "GL", "--params", "2,2,2"], capsys)
    assert code == 0
    assert "nilcone dimension: 5" in out


def test_dims_sp_nilcone_matches_the_fibre_formula(capsys):
    code, out, _ = run_cli(["dims", "--situation", "Sp", "--params", "4,4"], capsys)
    assert code == 0
    assert "nilcone dimension: 11" in out
    assert "fiber dimensions by stratum: [11, 10, 10]" in out


def test_dims_odd_symplectic_dimension_exits_2(capsys):
    code, out, err = run_cli(["dims", "--situation", "Sp", "--params", "3,2"], capsys)
    assert code == 2
    assert "even ambient dimension" in err
    assert out == ""


def test_dims_parameter_below_one_exits_2(capsys):
    code, out, err = run_cli(["dims", "--situation", "O", "--params", "0,2"], capsys)
    assert code == 2
    assert "at least 1" in err
    assert out == ""


def test_dims_wrong_parameter_count_exits_2(capsys):
    code, out, err = run_cli(["dims", "--situation", "GL", "--params", "2,2"], capsys)
    assert code == 2
    assert "takes 3 parameters" in err
    assert out == ""
    code, out, err = run_cli(["dims", "--situation", "GL", "--params", "2,x,2"], capsys)
    assert code == 2
    assert "invalid literal" in err
    assert out == ""


@pytest.mark.parametrize("situation, params", [("SL", "2,3"), ("SO", "3,2")])
def test_dims_sl_so_print_gorenstein_without_a_nilcone_line(situation, params, capsys):
    # no closed-form nilcone dimension exists for SL or SO
    code, out, err = run_cli(["dims", "--situation", situation, "--params", params], capsys)
    assert code == 0 and not err
    assert out.splitlines() == [
        f"situation {situation}, parameters ({params.replace(',', ', ')})",
        "  gorenstein: True",
    ]


def test_dims_sl_wrong_parameter_count_exits_2(capsys):
    code, out, err = run_cli(["dims", "--situation", "SL", "--params", "2"], capsys)
    assert code == 2
    assert "takes 2 parameters" in err
    assert out == ""


def test_degenerate_non_integer_weight_exits_2(capsys):
    code, out, err = run_cli(["degenerate", "--case", "so3-I1", "--weights=a,1,1"], capsys)
    assert code == 2
    assert "invalid literal" in err and not out


@pytest.mark.parametrize(
    "args", [["tangent", "--case", "nope"], ["degenerate", "--case", "nope", "--weights=-1,-1,-1"]]
)
def test_unknown_case_message_is_printed_plain(args, capsys):
    # the KeyError's message, not its repr wrapped in double quotes
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err == f"unknown case 'nope'; known: {', '.join(case_names())}\n"


def test_orbit_non_integer_part_exits_2(capsys):
    code, out, err = run_cli(["orbit", "--type", "gl", "--partition", "a"], capsys)
    assert code == 2
    assert "invalid literal" in err and not out


def test_orbit_command(capsys):
    code, out, _ = run_cli(["orbit", "--type", "gl", "--partition", "2,1"], capsys)
    assert code == 0
    assert "dimension: 4" in out


def test_orbit_invalid_partition(capsys):
    code, _, err = run_cli(["orbit", "--type", "sp", "--partition", "3,1"], capsys)
    assert code == 2
