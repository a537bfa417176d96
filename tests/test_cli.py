import json
import math

import pytest

from apeuler import character_group
from apeuler.cli import run


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_ap_human_output(capsys):
    code = run(["ap", "--s", "2", "--L", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "value" in out and "bound" in out
    value = float(out.splitlines()[0].split("=")[1].split()[0])
    assert abs(value - 6 / math.pi**2) < 1e-9


def test_ap_json_fields(capsys):
    code, payload = _run_json(
        capsys,
        ["ap", "--s", "2", "--q", "4", "--a", "3", "--P", "5", "--L", "8",
         "--check-oracle", "100000", "--json"],
    )
    assert code == 0
    assert payload["mode"] == "ap"
    assert payload["spec"]["q"] == 4 and payload["spec"]["P"] == 5
    assert set(payload) >= {"mode", "spec", "value", "log_value", "bound", "oracle"}
    orc = payload["oracle"]
    assert orc["delta"] <= payload["bound"] + orc["tail_bound"]


def test_rational_subcommand(capsys):
    code, payload = _run_json(
        capsys, ["rational", "--F", "0,0,2", "--P", "5", "--json"]
    )
    assert code == 0
    assert payload["spec"]["F"] == [[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]
    assert payload["bound"] < 1e-6


def test_multi_subcommand_equals_sign_syntax(capsys):
    # a leading '-' in the payload requires the --terms=... form
    code, payload = _run_json(
        capsys,
        ["multi", "--terms=-1,0,1,0;1,0,2,-1", "--s", "2", "--P", "10",
         "--L", "8", "--check-oracle", "100000", "--json"],
    )
    assert code == 0
    assert payload["oracle"]["delta"] <= payload["bound"] + payload["oracle"]["tail_bound"]


def test_complex_polynomial_entries(capsys):
    code, payload = _run_json(
        capsys, ["rational", "--F", "0,0,(1,1)", "--P", "6", "--json"]
    )
    assert code == 0
    assert payload["spec"]["F"][2] == [1.0, 1.0]


def test_demo_subcommand(capsys):
    code, payload = _run_json(
        capsys,
        ["demo", "--s", "2", "--nmax", "14", "--L", "6",
         "--check-oracle", "100000", "--json"],
    )
    assert code == 0
    assert payload["oracle"]["delta"] < 1e-4


def test_oracle_subcommand(capsys):
    code, payload = _run_json(
        capsys, ["oracle", "--s", "2", "--limit", "100000", "--json"]
    )
    assert code == 0
    assert abs(payload["value"][0] - 6 / math.pi**2) < 1e-4


def test_witt_subcommand(capsys):
    code, payload = _run_json(capsys, ["witt", "--poly", "1,-3,2", "--K", "3", "--json"])
    assert code == 0
    assert payload["b"] == [[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    code = run(["witt", "--poly", "1,-3,2", "--K", "3"])
    out = capsys.readouterr().out
    assert code == 0 and out.strip() == "b = [3, 1, 2]"


def test_characters_subcommand(capsys):
    code, payload = _run_json(capsys, ["characters", "--q", "5", "--json"])
    assert code == 0
    assert len(payload["characters"]) == 4
    assert sorted(c["order"] for c in payload["characters"]) == [1, 2, 4, 4]
    code = run(["characters", "--q", "4"])
    out = capsys.readouterr().out
    assert code == 0 and len(out.strip().splitlines()) == 2


@pytest.mark.parametrize("q", [1, 2, 8, 101, 210])
def test_characters_output_matches_the_exact_angles(capsys, q):
    grp = character_group(q)
    rows = [
        (chi.order, [None if a is None else f"{a.numerator}/{a.denominator}"
                     for a in map(chi.angle, range(q))])
        for chi in grp.characters
    ]
    expected_json = {
        "mode": "characters",
        "spec": {"q": q},
        "characters": [{"order": order, "angles": angles} for order, angles in rows],
    }
    expected_text = "".join(
        f"chi_{i} (order {order}): " + " ".join("." if a is None else a for a in angles) + "\n"
        for i, (order, angles) in enumerate(rows)
    )
    assert run(["characters", "--q", str(q), "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(expected_json) + "\n"
    assert run(["characters", "--q", str(q)]) == 0
    assert capsys.readouterr().out == expected_text


def test_invalid_arguments_exit_two(capsys):
    assert run(["ap", "--s", "1"]) == 2  # Re s <= 1
    assert run(["ap", "--q", "4", "--a", "2"]) == 2  # gcd(a, q) != 1
    assert run(["ap", "--s", "nonsense"]) == 2
    assert run(["rational", "--F", "0,1", "--P", "5"]) == 2  # F'(0) != 0
    capsys.readouterr()


def test_unreachable_precision_exit_three(capsys, monkeypatch):
    # a large imaginary part makes the Pochhammer factor in the remainder huge,
    # so this target is out of reach for the series-length ceiling
    monkeypatch.setenv("EULER_AP_EPS", "1e-300")
    assert run(["ap", "--s", "1.5,200000", "--L", "2"]) == 3
    capsys.readouterr()


def test_demo_overflowing_bound_exits_three(capsys):
    assert run(["demo", "--s", "1.05"]) == 3
    capsys.readouterr()


def test_eps_env_must_be_positive(capsys, monkeypatch):
    monkeypatch.setenv("EULER_AP_EPS", "-1")
    assert run(["ap", "--s", "2"]) == 2
    monkeypatch.setenv("EULER_AP_EPS", "zzz")
    assert run(["ap", "--s", "2"]) == 2
    # NaN used to switch the precision target off (this input then exited 3)
    for raw in ("nan", "inf"):
        monkeypatch.setenv("EULER_AP_EPS", raw)
        assert run(["ap", "--s", "2,1e6"]) == 2
    capsys.readouterr()


def test_oracle_limit_outside_the_sieve_range_exits_two(capsys, monkeypatch):
    from apeuler import arith

    assert run(["ap", "--s", "2", "--check-oracle", "-5", "--json"]) == 2
    monkeypatch.setattr(arith, "np", None)  # refused before any sieve array exists
    assert run(["oracle", "--s", "3", "--limit", "10000000000"]) == 2
    assert capsys.readouterr().out == ""


def test_from_json_round_trip(capsys, tmp_path):
    argv = ["ap", "--s", "1.5,1", "--q", "5", "--a", "2", "--P", "5", "--L", "8",
            "--check-oracle", "100000", "--json"]
    code = run(argv)
    first = capsys.readouterr().out
    assert code == 0
    job = tmp_path / "job.json"
    job.write_text(first)
    code = run(["--from-json", str(job)])
    second = capsys.readouterr().out
    assert code == 0
    assert second == first  # byte-identical replay


def test_from_json_missing_file(capsys):
    assert run(["--from-json", "/nonexistent/job.json"]) == 2
    assert run(["--from-json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "doc",
    [
        {"mode": "ap", "spec": {}},
        {"spec": {}},
        [1, 2],
        {"mode": "ap", "spec": {"s": [2.0, 0.0], "q": 1, "a": 1, "P": 2, "L": "x"}},
    ],
    ids=["empty-spec", "no-mode", "not-an-object", "mistyped-L"],
)
def test_from_json_malformed_job_exits_two(capsys, tmp_path, doc):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc))
    assert run(["--from-json", str(job)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["rational", "--F", "0,0,1", "--G", "1,nan", "--P", "5", "--json"],
        ["multi", "--terms=nan,0,1,0", "--P", "10", "--json"],
    ],
)
def test_non_finite_numbers_exit_two(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["ap", "--s", "1.001"],
        ["ap", "--s", "1.001,5", "--q", "4", "--a", "3"],
        ["multi", "--terms=0.1,0,1,0", "--s", "1.001", "--P", "10"],
    ],
)
def test_re_s_just_above_one_is_refused_for_the_prime_table(capsys, argv):
    assert run(argv) == 2
    assert "prime table limit" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["demo", "--L", "1", "--s", "3"], ["demo", "--L", "0"]])
def test_demo_depth_below_two_exits_two(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr().out == ""
