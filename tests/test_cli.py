import json
import math
import warnings
from fractions import Fraction

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
    angles = [Fraction(k, grp.exponent) for k in range(grp.exponent)]
    labels = [f"{a.numerator}/{a.denominator}" for a in angles] + [None]  # -1 picks None
    rows = [(chi.order, [labels[k] for k in grp.angles([chi.index], range(q))[0]]) for chi in grp.characters]
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


@pytest.mark.parametrize(
    "argv", [["characters", "--q", "100003"], ["ap", "--q", "20011", "--a", "3"]]
)
def test_modulus_past_the_table_cap_exits_two(capsys, monkeypatch, argv):
    from apeuler import characters

    # these tables would take 74.5 GiB and 2.98 GiB; the refusal comes before any array
    monkeypatch.setattr(characters, "np", None)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(characters.TABLE_MAX) in captured.err


def test_direct_path_needs_no_character_table(capsys, monkeypatch):
    from apeuler import characters

    # at Re s = 40 every exponent is summed over primes, so q = 20011 never builds a table
    monkeypatch.setattr(characters, "TABLE_MAX", 0)
    assert run(["ap", "--s", "40", "--q", "20011", "--a", "3"]) == 0
    capsys.readouterr()


def test_invalid_arguments_exit_two(capsys):
    assert run(["ap", "--s", "1"]) == 2  # Re s <= 1
    assert run(["ap", "--q", "4", "--a", "2"]) == 2  # gcd(a, q) != 1
    assert run(["ap", "--s", "nonsense"]) == 2
    assert run(["rational", "--F", "0,1", "--P", "5"]) == 2  # F'(0) != 0
    capsys.readouterr()
    # the power sums pass the doubles; this printed NaN, which is not JSON
    assert run(["witt", "--poly", "1,1e200", "--K", "3", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "double range" in captured.err


def test_unreachable_precision_exit_three(capsys, monkeypatch):
    # a large imaginary part makes the Pochhammer factor in the remainder huge,
    # so this target is out of reach for the series-length ceiling
    monkeypatch.setenv("EULER_AP_EPS", "1e-300")
    assert run(["ap", "--s", "1.5,200000", "--L", "2"]) == 3
    capsys.readouterr()


def test_plan_refusals_come_before_the_batched_hurwitz_pass(capsys, monkeypatch):
    # the branch refusal at s = 1.04 is raised before any Hurwitz vector is
    # evaluated, so an unreachable target changes neither its exit code nor
    # its message, and no numpy warning is raised on the way
    from apeuler import lseries

    kernel, calls = lseries._hurwitz_em, []
    monkeypatch.setattr(lseries, "_hurwitz_em", lambda *args: calls.append(args) or kernel(*args))
    monkeypatch.setenv("EULER_AP_EPS", "1e-300")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["ap", "--s", "1.04"]) == 2
    err = capsys.readouterr().err
    assert "too close to 1 for P=2" in err and "branch bound" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert calls == []
    assert run(["ap", "--s", "2,1e6"]) == 3
    capsys.readouterr()


def test_demo_overflowing_bound_exits_three(capsys):
    assert run(["demo", "--s", "1.05"]) == 3
    capsys.readouterr()


def test_plan_past_its_rounding_floor_exits_three(capsys):
    # used to end in an OverflowError traceback, exit 1
    assert run(["multi", "--terms=1000,0,1,0", "--s", "2", "--P", "2000", "--L", "60", "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "rounding floor" in captured.err


@pytest.mark.parametrize("argv", [
    ["multi", "--terms=1e4,0,1,0;1e4,0,2,0", "--s", "2", "--P", "40000", "--L", "10", "--json"],
    ["multi", "--terms=100,0,1,0", "--s", "2", "--P", "200", "--L", "160", "--json"],
])
def test_plan_coefficients_past_the_doubles_exit_three(capsys, argv):
    # kappa_L(c_m) reaches about 1e400 and 1e320: these ended in an overflow
    # RuntimeWarning, or without the filter in exit 2 on a NaN bound
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "past the doubles" in captured.err


def test_a_deep_plan_whose_coefficients_fit_returns_within_its_oracle(capsys):
    # the structural term formed P^L = 200^150 and ended in an OverflowError;
    # kappa_150(100) = 1e300 still fits in a double, so the plan is evaluated
    argv = ["multi", "--terms=100,0,1,0", "--s", "2", "--P", "200", "--L", "150", "--check-oracle", "1000000", "--json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oracle"]["delta"] <= out["bound"] + out["oracle"]["tail_bound"]


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
    "argv,field",
    [
        (["ap", "--s", "inf"], "s"),
        (["ap", "--s", "2,nan", "--json"], "s"),
        (["rational", "--F", "0,0,1", "--G", "1,nan", "--P", "5", "--json"], "G"),
        (["multi", "--terms=nan,0,1,0", "--P", "10", "--json"], "terms"),
        (["witt", "--poly", "1,inf", "--K", "3"], "poly"),
    ],
)
def test_non_finite_numbers_exit_two(capsys, argv, field):
    # argparse only parses; the spec readers refuse the number, as in a --from-json replay
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: spec field '{field}': ") and "is not a finite number" in err


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
    assert "too close to 1" in capsys.readouterr().err


def test_the_branch_bound_refuses_s_near_one_at_p_two_and_accepts_it_at_p_three(capsys):
    # B = log(1.05/0.05) = 3.04 at P = 2; the factor at 2 takes it to 2.39 at P = 3
    assert run(["ap", "--s", "1.05"]) == 2
    assert capsys.readouterr().err == "error: Re s=1.05 too close to 1 for P=2: branch bound B=3.045 is not below 3\n"
    assert run(["ap", "--s", "1.05", "--P", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["spec"]["P"] == 3


def test_a_plan_refuses_its_first_routed_exponent_before_any_hurwitz_work(capsys, monkeypatch):
    # plan order puts 2s = 2.08 before s - 0.03 = 1.01, which the branch check refuses
    from apeuler import lseries

    kernel_calls = []
    real = lseries._hurwitz_em
    monkeypatch.setattr(lseries, "_hurwitz_em", lambda *args: kernel_calls.append(args) or real(*args))
    assert run(["multi", "--terms=0.5,0,1,-0.03;0.5,0,2,0", "--s", "1.04", "--P", "5", "--L", "4"]) == 2
    assert capsys.readouterr().err == "error: Re s=1.01 too close to 1 for P=5: branch bound B=3.529 is not below 3\n"
    assert kernel_calls == []


@pytest.mark.parametrize("s", ["1e300", "1e308", "1e308,1e308", "1.7976931348623157e308"])
def test_huge_re_s_is_summed_directly_without_overflow(capsys, s):
    # the product is 1 to within a tiny bound; the direct cut and the direct
    # sum's tail and rounding terms must not overflow on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["ap", "--s", s, "--json"])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["log_value"] == [0.0, 0.0]
    assert payload["bound"] < 1e-300


@pytest.mark.parametrize("argv", [["--s", "1e308", "--P", "100"], ["--s", "1.7e308", "--P", "3"]])
def test_huge_re_s_past_a_small_prime_is_summed_directly(capsys, argv):
    # sigma log P overflows a double here; the direct cut and p^-s are formed
    # without it.  At P = 100 no prime lies in [P, X] = [100, 100] and the
    # tail underflows: the bound is the underflow allowance of the row
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["ap", *argv, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["log_value"] == [0.0, 0.0]
    assert 0 < payload["bound"] < 1e-300


@pytest.mark.parametrize(
    "argv",
    [
        ["ap", "--s", "1e308,1e308", "--P", "7"],
        ["ap", "--s", "1.7e308,1.7e308", "--P", "7"],  # |s| overflows too
        ["multi", "--terms=0.1,0,1,0", "--s", "1e307", "--P", "100"],
        ["multi", "--terms=0.1,0,1,0", "--s", "1e308", "--P", "100"],
        ["multi", "--terms=0.1,0,1,0;0.1,0,2,0", "--s", "1e308", "--P", "100"],  # u s overflows
    ],
)
def test_huge_s_where_p_to_the_minus_s_is_zero_returns_a_bound_without_warning(capsys, argv):
    # t log p, sigma log P and m (u s + v) used to overflow: three to five RuntimeWarnings,
    # then exit 2 (ap, multi at 1e308) or a traceback under -W error (multi at 1e307)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run([*argv, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["log_value"] == [0.0, 0.0]
    assert 0 < payload["bound"] < 1e-17  # the ap tail allowances, or the multi structural bound


@pytest.mark.parametrize(
    "argv, code",
    [
        (["ap", "--s", "10,1.7e308", "--P", "2"], 0),
        (["multi", "--terms=0.1,0,1,0", "--s", "1e308,1e308", "--P", "100"], 0),
        (["multi", "--terms=0.1,0,1,0;0.2,0,2,-1", "--s", "1e308,-1e308", "--P", "100"], 0),
        (["multi", "--terms=0.1,0,1,0", "--s", "2,1e308", "--P", "100"], 3),
        (["multi", "--terms=1,0,1,22;-1,0,2,2", "--s", "20,1e301", "--P", "5"], 0),
    ],
)
def test_huge_im_s_is_held_without_warning(capsys, argv, code):
    # t log p and m (u s + v) used to overflow: a RuntimeWarning traceback under -W error,
    # and without it exit 2 (ap), a value after overflow warnings (multi), or exit 3 after them.
    # Held term by term, s + 22 and 2 s + 2 both became 42 + 1e300 i: their coefficients
    # 1 and -1 cancelled in the plan and took their angle bound with them (bound 3e-5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run([*argv, "--json"]) == code
    out, err = capsys.readouterr()
    if code == 3:
        assert "Euler-Maclaurin cannot reach eps" in err
        return
    payload = json.loads(out)
    if payload["spec"]["s"][0] < 1e300:  # the angle t log p keeps no digit: the bound covers every angle
        assert math.isfinite(payload["bound"]) and payload["bound"] > 1
    else:  # p^-s is 0 at every prime
        assert payload["log_value"] == [0.0, 0.0]
        assert 0 < payload["bound"] < 1e-17


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "--s", "1e100"],
        ["demo", "--s", "1e308"],
        ["demo", "--s", "1e308,1e308"],
        ["ap", "--s", "1e308", "--P", "20011"],
    ],
)
def test_huge_re_s_exits_zero_without_warning(capsys, argv):
    # the L layer's Pochhammer factors overflowed past Re s = 1.09e44: a
    # RuntimeWarning traceback under -W error, and without it exit 2
    # ("non-finite value"); every Euler factor is 1 in doubles here
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run([*argv, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["log_value"] == [0.0, 0.0]
    assert payload["bound"] < 1e-14


def test_oracle_subcommand_refuses_check_oracle(capsys):
    # it used to be accepted and ignored
    assert run(["oracle", "--limit", "1000", "--check-oracle", "5000"]) == 2
    assert "unrecognized arguments: --check-oracle 5000" in capsys.readouterr().err


def test_oracle_subcommand_refuses_f_with_terms(capsys):
    # --terms used to win and --F to be dropped
    assert run(["oracle", "--F", "0,0,0.5", "--terms=0.5,0,1,0", "--P", "5", "--limit", "1000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--F or --terms, not both" in err


def test_the_oracle_flag_does_not_change_what_is_evaluated(capsys):
    # the table is max(10^6, 4P) either way: the flag used to widen it to its limit, so
    # a refusal near Re s = 1 came and went with it; the same refusal stands with and without it
    assert run(["ap", "--s", "1.04"]) == 2
    refusal = capsys.readouterr().err
    assert "branch bound" in refusal
    assert run(["ap", "--s", "1.04", "--check-oracle", "10000000"]) == 2
    assert capsys.readouterr().err == refusal
    argv = ["ap", "--s", "2", "--q", "8", "--a", "3", "--json"]
    assert run(argv) == 0
    plain = json.loads(capsys.readouterr().out)
    assert run([*argv, "--check-oracle", "10000000"]) == 0
    checked = json.loads(capsys.readouterr().out)
    assert [checked[k] for k in ("value", "log_value", "bound")] == [plain[k] for k in ("value", "log_value", "bound")]
    assert checked["oracle"]["delta"] <= checked["bound"] + checked["oracle"]["tail_bound"]


@pytest.mark.parametrize("argv", [["demo", "--L", "1", "--s", "3"], ["demo", "--L", "0"]])
def test_demo_depth_below_two_exits_two(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr().out == ""
