import json
import math

import numpy as np
import pytest

from tribell import cli, polytope, states, workflows
from tribell.bell import BellKind, MeasurementScenario, bound_b5, visibility_threshold
from tribell.bell.operators import VIOLATION_ATOL
from tribell.states import Family
from conftest import REAL_X_MIXED


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def test_bound_gghz_ns99(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "gghz", "--operator", "ns99", "--tau", "1")
    assert code == 0
    value = float(parse_kv(out)["bound"])
    assert value == pytest.approx(1 + 2 * np.sqrt(2), abs=1e-7)


def test_bound_trivial_tau_zero(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "gghz", "--operator", "ns99", "--tau", "0")
    assert code == 0
    assert float(parse_kv(out)["bound"]) == pytest.approx(3.0)


def test_bound_rho6_cross_checked_against_formula(capsys):
    from test_bounds import _published_table2

    code, out, _ = run_cli(capsys, "bound", "--family", "rho6", "--operator", "ns99", "--p", "0.9")
    assert code == 0
    assert float(parse_kv(out)["bound"]) == pytest.approx(
        _published_table2(Family.RHO6, 0.9), abs=1e-7
    )


def test_bound_svetlichny_on_the_x_state_families(capsys):
    from tribell.bell import svetlichny_x_max

    for family in REAL_X_MIXED:
        code, out, _ = run_cli(capsys, "bound", "--family", family.value,
                               "--operator", "svetlichny", "--p", "0.7")
        assert code == 0
        bound = svetlichny_x_max(states.mixed_builder(family)(0.7)).value
        assert parse_kv(out)["bound"] == f"{bound:.9g}"
    # at p = 1 each family is locally equivalent to GHZ
    code, out, _ = run_cli(capsys, "bound", "--family", "rho4", "--operator", "svetlichny",
                           "--p", "1")
    assert float(parse_kv(out)["bound"]) == pytest.approx(4 * math.sqrt(2), abs=1e-8)
    code, out, err = run_cli(capsys, "bound", "--family", "rho2", "--operator", "svetlichny",
                             "--p", "0.7")
    assert code == 2 and out == ""
    assert "state is not a real X state" in err


def test_bound_asks_the_state_not_the_family(capsys):
    # rho2 at p = 1 is GHZ, a real X state, so its bound is the exact GHZ maximum
    code, out, _ = run_cli(capsys, "bound", "--family", "rho2", "--operator", "ns99", "--p", "1")
    assert (code, out) == (0, "bound=3.82842712\n")
    code, out, err = run_cli(capsys, "bound", "--family", "rho2", "--operator", "ns99",
                             "--p", "0.999")
    assert (code, out) == (2, "")
    assert "state is not a real X state" in err


def test_bound_ms_at_a_tau_rounded_above_one(capsys):
    # C12^2 = 1 - tau of ms is clamped like tau, so ms meets gghz at the same tau
    for family in ("ms", "gghz"):
        code, out, _ = run_cli(capsys, "bound", "--family", family, "--operator", "ns99",
                               "--tau", "1.000000000001")
        assert (code, out) == (0, "bound=3.82842712\n"), family


@pytest.mark.parametrize("verb", [
    ("sweep", "--family", "gghz", "--from", "0", "--to", "0.5", "--steps", "2",
     "--columns", "tau"),
    ("tables", "--which", "2"),
], ids=lambda verb: verb[0])
def test_json_exits_2_on_verbs_that_print_no_key_value_pairs(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        cli.main([*verb, "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_bound_p_is_checked_like_every_other_p(capsys):
    # a weight 5e-13 above 1 used to be clamped to 1 and print the GHZ bound
    code, out, err = run_cli(capsys, "bound", "--family", "rho4", "--operator", "ns99",
                             "--p", "1.0000000000005")
    assert (code, out) == (2, "")
    assert "mixing weight must lie in [0,1], got 1.0000000000005" in err


def test_threshold_without_a_crossing_exits_3(capsys, monkeypatch):
    # both ends of an exact query are maxima, and the message must not call them lower bounds
    monkeypatch.setattr(workflows, "optimize_operator", None)
    code, out, err = run_cli(capsys, "threshold", "--family", "rho4", "--operator", "ns99",
                             "--bracket", "0.9", "1.0")
    assert (code, out) == (3, "")
    assert err == (
        "error: no violation onset of 3.0 in bracket (0.9, 1.0): endpoint values 3.513258, "
        "3.828427 (exact maxima on real X states; a see-saw value above the bound is a "
        "lower bound)\n"
    )


def test_bound_invalid_input_exits_2(capsys):
    code, _, err = run_cli(capsys, "bound", "--family", "gghz", "--operator", "ns99", "--tau", "2")
    assert code == 2
    assert "error" in err


def test_bound_ms_tau_derives_c12sq(capsys):
    # an ms state has C12^2 = 1 - tau; --c12sq may be left out or must agree
    from tribell.bell import bound_b4, bound_b5

    for operator, bound in (("ns99", bound_b5), ("svetlichny", bound_b4)):
        code, out, _ = run_cli(capsys, "bound", "--family", "ms", "--operator", operator,
                               "--tau", "0.8")
        assert code == 0
        assert float(parse_kv(out)["bound"]) == pytest.approx(bound(0.8, 0.2), abs=1e-8)
        # 1 - 0.8 rounds to 0.19999999999999996; a typed 0.2 must still agree
        code, same, _ = run_cli(capsys, "bound", "--family", "ms", "--operator", operator,
                                "--tau", "0.8", "--c12sq", "0.2")
        assert code == 0
        assert same == out


@pytest.mark.parametrize("argv, message", [
    (("--family", "ms", "--tau", "0.5", "--c12sq", "0.1"), "ms state has C12^2 = 0.5"),
    (("--family", "gghz", "--tau", "0.5", "--c12sq", "0.3"), "gghz state has C12^2 = 0"),
    (("--family", "gghz", "--tau", "0.5", "--p", "0.3"), "gghz does not take p"),
    (("--family", "ext_s", "--tau", "0.5", "--c12sq", "0.3", "--p", "0.3"),
     "ext_s does not take p"),
    (("--family", "rho4", "--p", "0.9", "--tau", "0.5"), "rho4 does not take tau"),
    (("--family", "rho8", "--p", "0.9", "--c12sq", "0.5"), "rho8 does not take c12sq"),
])
def test_bound_rejects_inconsistent_or_foreign_options(capsys, argv, message):
    code, out, err = run_cli(capsys, "bound", "--operator", "ns99", *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_optimize_family_violates(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--family", "gghz", "--eta", "0.69",
        "--operator", "ns99", "--restarts", "12", "--seed", "3",
    )
    assert code == 0
    pairs = parse_kv(out)
    assert pairs["violated"] == "true"
    assert float(pairs["value"]) > 3.0


def test_optimize_detection_example_state(capsys, tmp_path):
    path = tmp_path / "state.json"
    amps = [[0.966, 0.0]] + [[0.0, 0.0]] * 6 + [[0.259, 0.0]]
    path.write_text(json.dumps({"amplitudes": amps}))
    code, out, _ = run_cli(
        capsys, "optimize", "--state", str(path), "--operator", "svetlichny",
        "--restarts", "12",
    )
    assert code == 0
    pairs = parse_kv(out)
    assert pairs["violated"] == "false"
    assert float(pairs["value"]) < 4.0


def test_optimize_mixed_state_not_violated(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--family", "ghz", "--alpha", "0", "--operator", "ns99",
        "--restarts", "8",
    )
    assert code == 0
    pairs = parse_kv(out)
    assert abs(float(pairs["value"])) < 1e-6
    assert pairs["violated"] == "false"


def test_optimize_json_deterministic(capsys):
    args = ["optimize", "--family", "ms", "--eta", "0.4", "--operator", "ns99",
            "--restarts", "10", "--seed", "5", "--json"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert doc["seed"] == 5
    assert len(doc["angles_rad"]) == 12


def test_nl_seed_environment_default(capsys, monkeypatch):
    monkeypatch.setenv("NL_SEED", "17")
    code, out, _ = run_cli(
        capsys, "optimize", "--family", "ghz", "--operator", "ns99", "--restarts", "6",
    )
    assert code == 0
    assert parse_kv(out)["seed"] == "17"
    # explicit flag wins
    code, out, _ = run_cli(
        capsys, "optimize", "--family", "ghz", "--operator", "ns99",
        "--restarts", "6", "--seed", "4",
    )
    assert parse_kv(out)["seed"] == "4"


def test_threshold_exit_3_when_no_crossing(capsys):
    code, _, err = run_cli(
        capsys, "threshold", "--family", "rho4", "--operator", "ns99",
        "--bracket", "0.9", "0.99", "--tol", "1e-3",
    )
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("given", [("--restarts", "8"), ("--seed", "9")], ids=lambda given: given[0])
def test_exact_threshold_rejects_options_it_never_reads(capsys, given):
    code, out, err = run_cli(capsys, "threshold", "--family", "rho8", "--operator", "ns99",
                             "--tol", "1e-3", *given)
    assert code == 2
    assert out == ""
    assert f"{given[0]} cannot be combined with ns99 on rho8, whose probes take the exact maximum" in err


@pytest.mark.parametrize("given", [("--restarts", "8"), ("--seed", "9")], ids=lambda given: given[0])
def test_exact_svetlichny_threshold_rejects_options_it_never_reads(capsys, given):
    code, out, err = run_cli(capsys, "threshold", "--family", "rho4", "--operator", "svetlichny",
                             "--tol", "1e-3", *given)
    assert code == 2
    assert out == ""
    assert (f"{given[0]} cannot be combined with svetlichny on rho4, "
            "whose probes take the exact maximum") in err


def test_threshold_prints_its_keys(capsys, monkeypatch):
    monkeypatch.delenv("NL_SEED", raising=False)
    code, out, _ = run_cli(
        capsys, "threshold", "--family", "rho2", "--operator", "ns99", "--tol", "1e-3",
    )
    assert code == 0
    pairs = parse_kv(out)
    assert list(pairs) == ["family", "operator", "p_star", "bracket", "tol", "evaluations", "seed"]
    assert pairs["family"] == "rho2" and pairs["operator"] == "ns99"
    assert pairs["bracket"] == "0.55,1" and pairs["tol"] == "0.001" and pairs["seed"] == "1"
    # two bracket ends and nine halvings of the width 0.45 down to 1e-3
    assert pairs["evaluations"] == "11"
    assert float(pairs["p_star"]) == pytest.approx(0.811876, abs=1e-3)


def test_exact_threshold_prints_no_seed(capsys, monkeypatch):
    # The probes of an exact query read no seed, so none is printed.
    monkeypatch.setenv("NL_SEED", "7")
    code, out, _ = run_cli(
        capsys, "threshold", "--family", "rho4", "--operator", "svetlichny", "--tol", "1e-3",
    )
    assert code == 0
    assert list(parse_kv(out)) == ["family", "operator", "p_star", "bracket", "tol", "evaluations"]


def test_tables_prints_the_published_rows_and_the_library_cells(capsys, monkeypatch):
    monkeypatch.delenv("NL_SEED", raising=False)
    code, out, _ = run_cli(capsys, "tables", "--which", "1")
    assert code == 0
    assert out == workflows.format_table(workflows.compute_table(1)) + "\n"
    lines = out.splitlines()[2:]
    assert len(lines) == len(workflows.TABLE1_ROWS) == 4
    for line, spec in zip(lines, workflows.TABLE1_ROWS):
        assert line.startswith(f"| {spec.label} ")
        assert f"{spec.ns99_threshold:.6f}" in line and f"{spec.svetlichny_threshold:.6f}" in line


def test_bound_chsh_is_the_pure_state_maximum(capsys):
    code, out, _ = run_cli(capsys, "bound", "--operator", "chsh", "--c12sq", "0.5")
    assert code == 0
    assert parse_kv(out)["bound"] == f"{2 * math.sqrt(1.5):.9g}"


@pytest.mark.parametrize("family", ["gghz", "rho8"])
def test_bound_chsh_rejects_family(capsys, family):
    # a gghz marginal has C12^2 = 0 and reaches 2, so the family would contradict --c12sq
    code, out, err = run_cli(capsys, "bound", "--family", family, "--operator", "chsh",
                             "--c12sq", "0.5")
    assert code == 2
    assert out == ""
    assert "--family cannot be combined with --operator chsh" in err


@pytest.mark.parametrize("operator", ["ns99", "svetlichny"])
def test_bound_three_party_operators_need_family(capsys, operator):
    code, out, err = run_cli(capsys, "bound", "--operator", operator, "--tau", "1")
    assert code == 2
    assert out == ""
    assert f"the {operator} bound needs --family" in err


def test_lp_numerical_error_exits_3(capsys, monkeypatch):
    def failing(behavior, kind):
        raise polytope.LPNumericalError("simplex lost feasibility")

    monkeypatch.setattr(polytope, "membership", failing)
    code, out, err = run_cli(
        capsys, "membership", "--family", "ghz", "--model", "ns2", "--angles", *["0"] * 12,
    )
    assert code == 3
    assert out == ""
    assert err == "error: simplex lost feasibility\n"


def test_visibility_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "visibility", "--operator", "svetlichny", "--tau", "1",
    )
    assert code == 0
    assert float(parse_kv(out)["threshold"]) == pytest.approx(0.70711, abs=1e-5)


def test_visibility_tau_without_family_takes_c12sq_as_given(capsys):
    from tribell.bell import BellKind, visibility_threshold

    code, out, _ = run_cli(
        capsys, "visibility", "--operator", "ns99", "--tau", "0.5", "--c12sq", "0.3",
        "--no-confirm",
    )
    assert code == 0
    pairs = parse_kv(out)
    assert float(pairs["c12sq"]) == 0.3
    expected = visibility_threshold(BellKind.NS99, 0.5, 0.3)
    assert float(pairs["threshold"]) == pytest.approx(expected, abs=1e-8)


# A sum 5e-11 above 1 and a tau 5e-13 above 1, both inside states.check_tau_c12's tolerance.
EDGE_PAIRS = [("0.5", "0.50000000005"), ("1.0000000000005", "0")]


@pytest.mark.parametrize("tau, c12sq", EDGE_PAIRS)
def test_every_verb_takes_a_pair_at_the_edge_of_the_range_alike(capsys, tau, c12sq):
    # bound and visibility --no-confirm took both pairs; sweep and the confirmation refused
    # the first, and the confirmation built its state from the second unclamped
    pair = ("--tau", tau, "--c12sq", c12sq)
    expected = states.check_tau_c12(float(tau), float(c12sq))
    code, out, err = run_cli(capsys, "bound", "--family", "ext_s", "--operator", "svetlichny",
                             *pair, "--json")
    assert (code, err) == (0, "")
    bound = json.loads(out)["bound"]
    for confirm in (("--no-confirm",), ("--restarts", "4")):
        code, out, err = run_cli(capsys, "visibility", "--operator", "svetlichny", *pair,
                                 *confirm, "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["tau"], doc["c12sq"]) == expected
        assert doc["threshold"] == 4.0 / bound
    assert doc["confirmed"]
    code, out, err = run_cli(capsys, "sweep", "--family", "ext_s", "--c12sq", c12sq,
                             "--from", "0.4", "--to", tau, "--steps", "2",
                             "--columns", "c12sq,svet_bound,visibility_svet")
    assert (code, err) == (0, "")
    last = out.strip().splitlines()[-1].split(",")
    assert last[1:] == [f"{v:.9g}" for v in (expected[1], bound, 4.0 / bound)]


def test_visibility_exit_3_when_no_violation(capsys):
    code, _, err = run_cli(
        capsys, "visibility", "--operator", "svetlichny", "--tau", "0.1",
    )
    assert code == 3
    assert "no" in err.lower()


def test_visibility_eta_rejects_ext_s(capsys):
    # ext_s has no angle eta; it must not fall back to the gghz map
    code, out, err = run_cli(
        capsys, "visibility", "--family", "ext_s", "--eta", "0.5", "--operator", "ns99",
    )
    assert code == 2
    assert out == ""
    assert "ext_s has no angle eta" in err


def test_visibility_tau_rejects_c12sq_for_gghz(capsys):
    # a gghz state has C12^2 = 0; --family must not be ignored next to --tau
    code, out, err = run_cli(
        capsys, "visibility", "--family", "gghz", "--tau", "0.5", "--c12sq", "0.3",
        "--operator", "ns99", "--no-confirm",
    )
    assert code == 2
    assert out == ""
    assert "gghz state has C12^2 = 0" in err
    code, out, _ = run_cli(
        capsys, "visibility", "--family", "gghz", "--tau", "0.5",
        "--operator", "ns99", "--no-confirm",
    )
    assert code == 0
    assert float(parse_kv(out)["c12sq"]) == 0.0


@pytest.mark.parametrize("operator", ["ns99", "svetlichny"])
def test_visibility_ms_tau_matches_eta(capsys, operator):
    # an ms state with tau = sin^2 eta has C12^2 = 1 - tau = cos^2 eta
    code, by_tau, _ = run_cli(
        capsys, "visibility", "--family", "ms", "--tau", "0.8",
        "--operator", operator, "--no-confirm",
    )
    assert code == 0
    code, by_eta, _ = run_cli(
        capsys, "visibility", "--family", "ms", "--eta", repr(math.atan(2.0)),
        "--operator", operator, "--no-confirm",
    )
    assert code == 0
    by_tau, by_eta = parse_kv(by_tau), parse_kv(by_eta)
    assert float(by_tau["c12sq"]) == pytest.approx(0.2, abs=1e-15)
    assert by_tau["threshold"] == by_eta["threshold"]


def test_visibility_ms_tau_rejects_conflicting_c12sq(capsys):
    code, out, err = run_cli(
        capsys, "visibility", "--family", "ms", "--tau", "0.8", "--c12sq", "0.3",
        "--operator", "ns99", "--no-confirm",
    )
    assert code == 2
    assert out == ""
    assert "ms state has C12^2 = 0.2" in err


def test_threshold_rejects_k_for_families_other_than_rho3(capsys):
    code, out, err = run_cli(
        capsys, "threshold", "--family", "rho2", "--k", "7", "--operator", "ns99", "--tol", "1e-2",
    )
    assert code == 2
    assert out == ""
    assert "rho2 does not take k" in err


def test_bound_takes_k_for_rho3_only(capsys):
    # rho3 at p = 1 is GHZ, a real X state, whatever k
    code, out, err = run_cli(capsys, "bound", "--family", "rho3", "--k", "2",
                             "--operator", "ns99", "--p", "1")
    assert (code, out, err) == (0, "bound=3.82842712\n", "")
    for family, given in (("rho2", ("--p", "1")), ("gghz", ("--tau", "1"))):
        code, out, err = run_cli(capsys, "bound", "--family", family, "--k", "2",
                                 "--operator", "ns99", *given)
        assert (code, out) == (2, "")
        assert f"{family} does not take k" in err
    code, out, err = run_cli(capsys, "bound", "--operator", "chsh", "--c12sq", "0.3",
                             "--k", "2")
    assert (code, out) == (2, "")
    assert "--k cannot be combined with --operator chsh" in err


def test_visibility_at_the_onset_takes_the_verdict_tolerance(capsys):
    # B5 exceeds 3 by 1.55e-10 here, within VIOLATION_ATOL: the see-saw reports no
    # violation, so the closed form gives no threshold below 1 either
    tau = "0.16153846163846153"
    assert 1e-12 < bound_b5(float(tau), 0.3) - 3.0 <= VIOLATION_ATOL
    assert visibility_threshold(BellKind.NS99, float(tau), 0.3) is None
    code, out, err = run_cli(capsys, "visibility", "--operator", "ns99", "--tau", tau,
                             "--c12sq", "0.3")
    assert (code, out) == (3, "")
    assert "no violation of ns99" in err


def test_sweep_rejects_c12sq_for_families_other_than_ext_s(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--family", "gghz", "--from", "0.1", "--to", "0.7",
        "--steps", "2", "--c12sq", "0.3", "--columns", "tau,c12sq",
    )
    assert code == 2
    assert out == ""
    assert "gghz does not take c12sq" in err


def test_optimize_rejects_foreign_family_options(capsys):
    code, out, err = run_cli(
        capsys, "optimize", "--family", "gghz", "--eta", "0.5", "--p", "0.3", "--k", "7",
        "--operator", "ns99",
    )
    assert code == 2
    assert out == ""
    assert "gghz does not take p, k" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("optimize", "--family", "rho3", "--p", "0.9", "--operator", "ns99"),
        ("membership", "--family", "rho3", "--p", "0.9", "--optimize-scenario", "ns99",
         "--model", "ns2"),
        ("channel", "--family", "rho3", "--p", "0.9", "--kind", "depolarize",
         "--strengths", "0.8", "0.7", "0.6"),
        ("threshold", "--family", "rho3", "--operator", "ns99"),
        ("bound", "--family", "rho3", "--operator", "ns99", "--p", "1"),
        ("sweep", "--family", "rho3", "--from", "0.6", "--to", "0.9",
         "--steps", "2", "--columns", "ns_opt"),
    ],
)
def test_rho3_without_k_exits_2_in_every_verb(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "rho3 requires the integer k" in err


def test_sweep_csv_output(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    argv = ("sweep", "--family", "gghz", "--from", "0", "--to", "0.785398", "--steps", "4",
            "--columns", "tau,ns_bound,delta_d", "--output", str(out_file))
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    text = out_file.read_text()
    # without --output the same CSV goes to stdout
    assert run_cli(capsys, *argv[:-2]) == (0, text, "")
    lines = text.strip().splitlines()
    assert lines[0] == "eta,tau,ns_bound,delta_d"
    assert len(lines) == 5
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs == sorted(xs)


@pytest.mark.parametrize("given", [("--restarts", "3"), ("--seed", "9")], ids=lambda given: given[0])
def test_sweep_without_optimizer_columns_rejects_options_it_never_reads(capsys, given):
    code, out, err = run_cli(capsys, "sweep", "--family", "gghz", "--from", "0.1",
                             "--to", "0.7", "--steps", "2", "--columns", "tau", *given)
    assert code == 2
    assert out == ""
    assert f"{given[0]} cannot be combined with columns without ns_opt or svet_opt" in err


@pytest.mark.parametrize("bounds", [("0.7", "inf"), ("nan", "0.8"), ("0.7", "nan")])
def test_sweep_rejects_non_finite_bounds(capsys, bounds):
    code, out, err = run_cli(capsys, "sweep", "--family", "rho6", "--from", bounds[0],
                             "--to", bounds[1], "--steps", "3", "--columns", "ns_bound")
    assert code == 2
    assert out == ""
    assert "sweep bounds must be finite" in err


def test_sweep_rejects_single_step(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--family", "gghz",
        "--from", "0", "--to", "0.5", "--steps", "1", "--columns", "tau",
    )
    assert code == 2


def test_membership_from_behavior_file(capsys, tmp_path):
    beh = polytope.quantum_behavior(
        np.eye(8, dtype=complex) / 8, MeasurementScenario.all_z()
    )
    path = tmp_path / "uniform.txt"
    polytope.save_behavior(beh, path)
    code, out, _ = run_cli(
        capsys, "membership", "--behavior", str(path), "--model", "fully_local",
    )
    assert code == 0
    assert parse_kv(out)["inside"] == "true"


def test_membership_ghz_outside_ns2(capsys, tmp_path):
    out_file = tmp_path / "ghz_behavior.txt"
    code, out, _ = run_cli(
        capsys, "membership", "--family", "ghz", "--optimize-scenario", "ns99",
        "--model", "ns2", "--restarts", "12", "--behavior-out", str(out_file),
    )
    assert code == 0
    assert parse_kv(out)["inside"] == "false"
    assert out_file.exists()
    polytope.load_behavior(out_file)  # exported table is well-formed


def test_membership_requires_scenario(capsys):
    code, _, err = run_cli(
        capsys, "membership", "--family", "ghz", "--model", "ns2",
    )
    assert code == 2


CHANNEL_BOTH_MODEL_KEYS = ["kind", "strengths"] + [
    f"{model}_{op}{suffix}"
    for model in ("kraus", "closed_form")
    for op in ("ns99", "svetlichny")
    for suffix in ("", "_violated")
]


def test_channel_command_both_models(capsys):
    from tribell.channels import HermitizedClosedFormWarning

    with pytest.warns(HermitizedClosedFormWarning):
        code, out, _ = run_cli(
            capsys, "channel", "--kind", "amplitude_damp", "--strengths", "0.1", "0.08", "0.09",
            "--family", "gghz", "--eta", "0.0992", "--closed-form",
        )
    assert code == 0
    pairs = parse_kv(out)
    assert list(pairs) == CHANNEL_BOTH_MODEL_KEYS
    assert pairs["kraus_ns99_violated"] == "true"
    assert pairs["kraus_svetlichny_violated"] == "false"
    assert pairs["closed_form_ns99_violated"] == "true"
    assert pairs["closed_form_svetlichny_violated"] == "false"
    # A depolarized MS state is not a real X state, so its Kraus model reads --restarts.
    code, out, _ = run_cli(
        capsys, "channel", "--kind", "depolarize", "--strengths", "0.8", "0.7", "0.6",
        "--family", "ms", "--eta", "0.69", "--restarts", "12",
    )
    assert code == 0
    assert list(parse_kv(out)) == CHANNEL_BOTH_MODEL_KEYS[:6]


@pytest.mark.parametrize("given", [("--restarts", "12"), ("--seed", "3")])
def test_channel_on_real_x_states_rejects_optimizer_options(capsys, given):
    # GGHZ under the channel and its closed form are real X states with exact
    # maxima, so neither option would be read.
    from tribell.channels import HermitizedClosedFormWarning

    with pytest.warns(HermitizedClosedFormWarning):
        code, out, err = run_cli(
            capsys, "channel", "--kind", "amplitude_damp", "--strengths", "0.1", "0.08", "0.09",
            "--family", "gghz", "--eta", "0.0992", "--closed-form", *given,
        )
    assert code == 2
    assert out == ""
    assert f"{given[0]} cannot be combined with a channel whose model states are all real X" in err


def test_channel_command_depolarized_closed_form(capsys):
    # The published depolarized GGHZ example: its closed form violates both
    # operators, while the Kraus model it claims to describe violates neither.
    code, out, _ = run_cli(
        capsys, "channel", "--kind", "depolarize", "--strengths", "0.8", "0.7", "0.6",
        "--family", "gghz", "--eta", "0.69", "--closed-form",
    )
    assert code == 0
    pairs = parse_kv(out)
    assert list(pairs) == CHANNEL_BOTH_MODEL_KEYS
    assert pairs["closed_form_ns99_violated"] == "true"
    assert pairs["closed_form_svetlichny_violated"] == "true"
    assert pairs["kraus_ns99_violated"] == "false"
    assert pairs["kraus_svetlichny_violated"] == "false"


def test_bad_state_file_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(
        capsys, "optimize", "--state", str(path), "--operator", "ns99",
    )
    assert code == 2


@pytest.mark.parametrize("row, bad", [
    ("0 0 0 0 0 0 ", "0 2 0 0 0 0 "),  # an IndexError traceback before the check
    ("1 0 0 0 0 0 ", "-1 0 0 0 0 0 "),  # read as setting 1, exit 0, before the check
])
def test_membership_bad_behavior_field_exits_2(capsys, tmp_path, row, bad):
    path = tmp_path / "behavior.txt"
    polytope.save_behavior(
        polytope.quantum_behavior(np.eye(8, dtype=complex) / 8, MeasurementScenario.all_z()),
        path,
    )
    path.write_text(path.read_text().replace("\n" + row, "\n" + bad, 1))
    code, out, err = run_cli(capsys, "membership", "--behavior", str(path), "--model", "ns2")
    assert code == 2
    assert out == ""
    assert "must be 0 or 1" in err


def test_membership_repeated_behavior_row_exits_2(capsys, tmp_path):
    path = tmp_path / "behavior.txt"
    polytope.save_behavior(
        polytope.quantum_behavior(np.eye(8, dtype=complex) / 8, MeasurementScenario.all_z()),
        path,
    )
    # a second 0 0 0 0 0 0 row would silently replace the first
    text = path.read_text().replace("\n0 0 0 0 0 0 ", "\n0 0 0 0 0 0 0.9\n0 0 0 0 0 0 ", 1)
    path.write_text(text)
    code, out, err = run_cli(capsys, "membership", "--behavior", str(path), "--model", "ns2")
    assert code == 2
    assert out == ""
    assert "'0 0 0 0 0 0 0.125' repeats an earlier x y z a b c" in err


@pytest.mark.parametrize("given", [
    ("--family", "gghz", "--eta", "2"),
    ("--family", "gghz", "--eta", "-0.5"),
    ("--family", "ms", "--eta", "3", "--no-confirm"),
])
def test_visibility_rejects_eta_outside_the_family_range(capsys, given):
    # an out-of-range gghz eta used to be folded back into range: eta 2 gave GGHZ(0.43)
    code, out, err = run_cli(capsys, "visibility", "--operator", "ns99", *given)
    assert code == 2
    assert out == ""
    assert "eta must lie in [0, pi/" in err


def test_state_file_amplitudes_not_pairs_exits_2(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"amplitudes": [1, 0, 0, 0, 0, 0, 0, 0]}))
    code, out, err = run_cli(capsys, "optimize", "--state", str(path), "--operator", "ns99")
    assert code == 2
    assert out == ""
    assert "[re, im] pairs" in err


@pytest.mark.parametrize("doc", [{"amplitudes": 5}, {"density": 5}, {"density": [5]}, 5])
def test_state_file_wrong_container_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "optimize", "--state", str(path), "--operator", "ns99")
    assert code == 2
    assert out == ""
    assert err.startswith("error: state file")


@pytest.mark.parametrize("lengths", [[8] * 7 + [7], [8] * 7, [8] * 9])
def test_state_file_density_of_wrong_shape_exits_2(capsys, tmp_path, lengths):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"density": [[[0.125, 0.0]] * n for n in lengths]}))
    code, out, err = run_cli(capsys, "optimize", "--state", str(path), "--operator", "ns99")
    assert code == 2
    assert out == ""
    assert err.startswith("error: state file density must be 8 rows of 8")


def test_sweep_rejects_unavailable_column_before_optimizing(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("optimize_operator called before the column check")

    monkeypatch.setattr(workflows, "optimize_operator", fail)
    code, out, err = run_cli(
        capsys, "sweep", "--family", "rho2", "--from", "0.6", "--to", "0.9",
        "--steps", "2", "--columns", "ns_opt,ns_bound",
    )
    assert code == 2
    assert out == ""
    assert "columns ['ns_bound'] are not available for family rho2" in err


def test_nl_seed_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("NL_SEED", "abc")
    optimize = ("optimize", "--family", "ghz", "--operator", "ns99", "--restarts", "2")
    code, out, err = run_cli(capsys, *optimize)
    assert code == 2
    assert out == ""
    assert "NL_SEED must be an integer" in err
    # an explicit --seed does not read the environment
    code, _, _ = run_cli(capsys, *optimize, "--seed", "3")
    assert code == 0


def test_negative_seed_exits_2_naming_the_seed(capsys, monkeypatch):
    optimize = ("optimize", "--family", "gghz", "--eta", "0.5", "--operator", "ns99")
    code, out, err = run_cli(capsys, *optimize, "--seed", "-1")
    assert (code, out) == (2, "")
    assert "error: seed must be non-negative, got -1" in err
    monkeypatch.setenv("NL_SEED", "-2")
    code, out, err = run_cli(capsys, *optimize)
    assert (code, out) == (2, "")
    assert "error: seed must be non-negative, got -2" in err


def test_bound_has_no_seed(capsys):
    # a closed form draws no restarts, so bound offers no --seed to ignore
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound", "--family", "gghz", "--operator", "ns99", "--tau", "1", "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


@pytest.mark.parametrize("given", [("--delta", "-0.05"), ("--restarts", "3"), ("--seed", "9")],
                         ids=lambda given: given[0])
def test_visibility_no_confirm_rejects_options_it_never_reads(capsys, given):
    code, out, err = run_cli(capsys, "visibility", "--operator", "ns99", "--tau", "1",
                             "--no-confirm", *given)
    assert code == 2
    assert out == ""
    assert f"{given[0]} cannot be combined with --no-confirm" in err


@pytest.mark.parametrize("given", [("--restarts", "3"), ("--seed", "9")], ids=lambda given: given[0])
def test_membership_angles_reject_options_they_never_read(capsys, given):
    code, out, err = run_cli(capsys, "membership", "--family", "ghz", *MEMBERSHIP_ANGLES, *given)
    assert code == 2
    assert out == ""
    assert f"{given[0]} cannot be combined with --angles" in err


def test_closed_form_family_sets_agree(capsys):
    assert set(states.SUBCLASS_S) == {Family.GGHZ, Family.MS, Family.EXT_S}
    assert set(REAL_X_MIXED) == {Family.RHO4, Family.RHO5, Family.RHO6, Family.RHO7,
                                        Family.RHO8}
    # bound prints a ns99 value for exactly the families with a closed form ...
    options = (("--tau", "0.5"), ("--tau", "0.5", "--c12sq", "0.5"), ("--p", "0.9"))
    for family in Family:
        codes = [run_cli(capsys, "bound", "--family", family.value, "--operator", "ns99", *given)[0]
                 for given in options]
        closed = family in states.SUBCLASS_S or family in REAL_X_MIXED
        assert (0 in codes) == closed, (family, codes)
    # ... and a sweep offers that bound as a column for exactly the same mixed families
    for family in states.MIXED_FAMILIES:
        k = 3 if family is Family.RHO3 else None
        try:
            workflows.SweepSpec(family, 0.6, 0.9, 2, ("ns_bound",), k=k)
            offered = True
        except ValueError as exc:
            assert "not available" in str(exc)
            offered = False
        assert offered == (family in REAL_X_MIXED), family


def test_channel_rejects_alpha_with_closed_form(capsys):
    # --alpha would mix only the Kraus input, so the two models would see different states
    code, out, err = run_cli(
        capsys, "channel", "--kind", "depolarize", "--strengths", "0.1", "0.1", "0.1",
        "--family", "gghz", "--eta", "0.69", "--alpha", "0.5", "--closed-form",
    )
    assert code == 2
    assert out == ""
    assert "--alpha" in err


@pytest.mark.parametrize("extra", [("--tau", "0.5"), ("--p", "0.5")])
def test_bound_chsh_rejects_tau_and_p(capsys, extra):
    code, out, err = run_cli(capsys, "bound", "--operator", "chsh", "--c12sq", "0.5", *extra)
    assert code == 2
    assert out == ""
    assert "neither --tau nor --p" in err


def test_optimize_rejects_chsh(capsys):
    # every optimize input is a three-qubit state, so chsh could never run
    with pytest.raises(SystemExit) as exc:
        cli.main(["optimize", "--family", "ghz", "--operator", "chsh"])
    assert exc.value.code == 2
    assert "invalid choice: 'chsh'" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["-0.05", "0"])
def test_visibility_rejects_delta_that_is_not_positive(capsys, delta):
    # a negative delta puts the "below" probe above the threshold; zero probes it twice
    code, out, err = run_cli(capsys, "visibility", "--operator", "ns99", "--tau", "1",
                             "--delta", delta)
    assert code == 2
    assert out == ""
    assert "delta must be positive" in err


def _ghz_state_file(tmp_path):
    path = tmp_path / "ghz.json"
    amp = [math.sqrt(0.5), 0.0]
    path.write_text(json.dumps({"amplitudes": [amp] + [[0.0, 0.0]] * 6 + [amp]}))
    return str(path)


MEMBERSHIP_ANGLES = ("--model", "ns2", "--angles", *["0"] * 12)
CHANNEL = ("--kind", "depolarize", "--strengths", "0.1", "0.1", "0.1")


@pytest.mark.parametrize("verb, rest, given, option", [
    ("optimize", ("--operator", "ns99"), ("--family", "gghz", "--eta", "0.3"), "--family"),
    ("optimize", ("--operator", "ns99"), ("--p", "0.3"), "--p"),
    ("membership", MEMBERSHIP_ANGLES, ("--family", "ghz"), "--family"),
    ("membership", MEMBERSHIP_ANGLES, ("--k", "3"), "--k"),
    ("channel", CHANNEL, ("--family", "gghz", "--eta", "0.3", "--closed-form"), "--family"),
    ("channel", CHANNEL, ("--sign", "-1"), "--sign"),
])
def test_state_file_rejects_family_options(capsys, monkeypatch, tmp_path, verb, rest, given,
                                           option):
    # the file wins, so a family or family parameter next to it would be dropped
    monkeypatch.setattr(cli, "optimize_operator", None)
    code, out, err = run_cli(capsys, verb, "--state", _ghz_state_file(tmp_path), *rest, *given)
    assert code == 2
    assert out == ""
    assert f"{option} cannot be combined with --state FILE" in err


@pytest.mark.parametrize("given, option", [
    (("--family", "ghz"), "--family"),
    (("--alpha", "0.5"), "--alpha"),
    (("--angles", *["0"] * 12), "--angles"),
    (("--optimize-scenario", "ns99"), "--optimize-scenario"),
    (("--behavior-out", "copy.txt"), "--behavior-out"),
    (("--restarts", "3"), "--restarts"),
    (("--seed", "9"), "--seed"),
])
def test_membership_behavior_file_rejects_state_options(capsys, tmp_path, given, option):
    path = tmp_path / "behavior.txt"
    polytope.save_behavior(
        polytope.quantum_behavior(np.eye(8, dtype=complex) / 8, MeasurementScenario.all_z()),
        path,
    )
    given = tuple(str(tmp_path / g) if g == "copy.txt" else g for g in given)
    code, out, err = run_cli(capsys, "membership", "--behavior", str(path), "--model", "ns2",
                             *given)
    assert code == 2
    assert out == ""
    assert f"{option} cannot be combined with --behavior FILE" in err
    assert not (tmp_path / "copy.txt").exists()


def test_membership_angles_reject_optimize_scenario(capsys, monkeypatch):
    monkeypatch.setattr(cli, "optimize_operator", None)
    code, out, err = run_cli(capsys, "membership", "--family", "ghz", *MEMBERSHIP_ANGLES,
                             "--optimize-scenario", "ns99")
    assert code == 2
    assert out == ""
    assert "--optimize-scenario cannot be combined with --angles" in err


def test_state_file_density_far_from_hermitian_exits_2(capsys, tmp_path):
    # rho_07 = 0.5 against rho_70 = -0.3 would be read as 0.1 on both sides
    rho = np.zeros((8, 8))
    rho[0, 0] = rho[7, 7] = 0.5
    rho[0, 7], rho[7, 0] = 0.5, -0.3
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"density": [[[v, 0.0] for v in row] for row in rho.tolist()]}))
    code, out, err = run_cli(capsys, "optimize", "--state", str(path), "--operator", "ns99")
    assert code == 2
    assert out == ""
    assert "not Hermitian" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("verb", [
    ("threshold", "--family", "rho4", "--operator", "ns99"),
    ("tables", "--which", "1"),
])
def test_non_finite_tolerance_exits_2(capsys, monkeypatch, verb, tol):
    # nan compared False against the minimum and inf skipped every halving,
    # so both printed the bracket midpoint 0.775 after two probes
    monkeypatch.setattr(workflows, "optimize_operator", None)
    code, out, err = run_cli(capsys, *verb, "--tol", tol)
    assert code == 2
    assert out == ""
    assert f"tolerance must be >= {workflows.MIN_BISECT_TOL}, got {tol}" in err


def test_state_file_non_finite_amplitude_exits_2(capsys, tmp_path):
    # a NaN amplitude passed the norm check and reached the eigensolver
    path = tmp_path / "state.json"
    path.write_text('{"amplitudes": [[NaN, 0.0]' + ', [0.0, 0.0]' * 6 + ', [0.7, 0.0]]}')
    code, out, err = run_cli(capsys, "optimize", "--state", str(path), "--operator", "ns99")
    assert code == 2
    assert out == ""
    assert "state file amplitudes contain non-finite entries" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_membership_non_finite_angle_exits_2(capsys, bad):
    code, out, err = run_cli(capsys, "membership", "--family", "ghz", "--model", "ns2",
                             "--angles", *["0"] * 11, bad)
    assert code == 2
    assert out == ""
    assert "measurement angles must be finite" in err


def _no_see_saw(*args, **kwargs):
    raise AssertionError("the see-saw ran")


BEHAVIOR_FILE = object()  # stands for a behavior file written in the test's tmp_path
DEPOLARIZED = ("--kind", "depolarize", "--strengths", "0.8", "0.7", "0.6", "--eta", "0.69")
RHO6_SWEEP = ("sweep", "--family", "rho6", "--from", "0.7", "--to", "0.8", "--steps", "3")

# Paths that run no see-saw, and the matching paths that do.
NO_SEE_SAW = {
    "threshold-rho4-svetlichny": ("threshold", "--family", "rho4", "--operator", "svetlichny",
                                  "--tol", "1e-2"),
    "threshold-rho8-ns99": ("threshold", "--family", "rho8", "--operator", "ns99", "--tol", "1e-2"),
    "tables-2": ("tables", "--which", "2"),
    "sweep-bounds": (*RHO6_SWEEP, "--columns", "ns_bound,svet_bound"),
    "visibility-no-confirm": ("visibility", "--operator", "ns99", "--tau", "1", "--no-confirm"),
    "membership-angles": ("membership", "--family", "ghz", *MEMBERSHIP_ANGLES),
    "membership-behavior": ("membership", "--behavior", BEHAVIOR_FILE, "--model", "ns2"),
    "channel-all-x": ("channel", *DEPOLARIZED, "--family", "gghz", "--closed-form"),
}
SEE_SAW = {
    "optimize": ("optimize", "--family", "ghz", "--operator", "ns99"),
    "threshold-rho2": ("threshold", "--family", "rho2", "--operator", "ns99", "--tol", "1e-2"),
    "tables-1": ("tables", "--which", "1"),
    "sweep-opt": (*RHO6_SWEEP, "--columns", "ns_bound,ns_opt"),
    "visibility-confirm": ("visibility", "--operator", "ns99", "--tau", "1"),
    "membership-optimize": ("membership", "--family", "ghz", "--model", "ns2",
                            "--optimize-scenario", "ns99"),
    "channel-not-x": ("channel", *DEPOLARIZED, "--family", "ms"),
}


@pytest.mark.parametrize("path", NO_SEE_SAW)
def test_paths_without_the_see_saw_read_no_optimizer_option(capsys, monkeypatch, tmp_path, path):
    monkeypatch.setattr(workflows, "optimize_operator", _no_see_saw)
    monkeypatch.setattr(cli, "optimize_operator", _no_see_saw)
    behavior = tmp_path / "behavior.txt"
    polytope.save_behavior(
        polytope.quantum_behavior(np.eye(8, dtype=complex) / 8, MeasurementScenario.all_z()),
        behavior,
    )
    argv = [str(behavior) if arg is BEHAVIOR_FILE else arg for arg in NO_SEE_SAW[path]]
    monkeypatch.delenv("NL_SEED", raising=False)
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0 and expected
    monkeypatch.setenv("NL_SEED", "abc")
    assert run_cli(capsys, *argv)[:2] == (0, expected)
    for given in (("--seed", "9"), ("--restarts", "3")):
        code, out, err = run_cli(capsys, *argv, *given)
        assert (code, out) == (2, "")
        assert f"error: {given[0]} cannot be combined with" in err


@pytest.mark.parametrize("path", SEE_SAW)
def test_see_saw_paths_read_nl_seed(capsys, monkeypatch, path):
    # NL_SEED is read before the see-saw runs, so a bad one stops the path first
    monkeypatch.setattr(workflows, "optimize_operator", _no_see_saw)
    monkeypatch.setattr(cli, "optimize_operator", _no_see_saw)
    monkeypatch.setenv("NL_SEED", "abc")
    code, out, err = run_cli(capsys, *SEE_SAW[path])
    assert (code, out) == (2, "")
    assert "NL_SEED must be an integer, got 'abc'" in err
