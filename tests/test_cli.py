import dataclasses
import hashlib
import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from randx import catalog, classicaloracle, devicemodel, protocol
from randx.cli import HEADER, _fmt, _letterstr, main
from randx.devicemodel import _RECORD_BLOCK, load_device, save_device
from randx.gamedefs import game_to_dict, load_game, nonlocal_game, save_game
from tests.dense import device_to_dict
from tests.test_devicemodel import misfit_projector_device
from tests.test_protocol import memory_state_mass, toy_setup


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "randx.cli", *args],
        capture_output=True,
        **kwargs,
    )


def test_classical_value_json(capsys):
    assert main(["classical-value", "--game", "magic-square"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert payload["provenance"].startswith("exact")
    # the tie-break picks the lexicographically first best strategy, printed as is
    assert '"value": 0.8888888888888888,' in out
    assert payload["strategy"] == [
        {"0": "000", "1": "000", "2": "011"},
        {"0": "001", "1": "001", "2": "001"},
    ]


def test_rate_curve_csv_contract(capsys):
    assert main(["rate-curve", "--game", "chsh", "--grid", "0.75:0.8536:50"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("# randx ")
    assert lines[1] == "x,pi,pi_prime"
    assert len(lines) == 52  # header comment + column row + 50 points
    first = lines[2].split(",")
    assert float(first[0]) == pytest.approx(0.75)
    assert float(first[1]) == 0.0


def test_rate_curve_explicit_params(capsys):
    assert main(["rate-curve", "--w", "0.6", "--r", "3", "--grid", "0.5:0.9:5",
                 "--out", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["w"] == 0.6
    assert payload["points"][0]["pi"] == 0.0


def test_simulate_json(capsys):
    assert main(["simulate", "--n", "50", "--q", "0.3", "--chi", "0.5",
                 "--seed", "3", "--trials", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 4
    assert len(payload["runs"]) == 4
    assert all(r["seed"] == 3 + k for k, r in enumerate(payload["runs"]))


def test_simulate_transcript_csv(capsys):
    assert main(["simulate", "--n", "10", "--q", "0.3", "--chi", "0.5",
                 "--seed", "3", "--out", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "round,t,a,x,score"
    assert len(lines) == 12


def test_enumerate_json(capsys):
    assert main(["enumerate", "--n", "2", "--q", "0.3", "--chi", "0.0",
                 "--eps", "0.2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mass"] == pytest.approx(1.0, abs=1e-9)


def test_entropy_bound_enumeration_path(capsys):
    assert main(["entropy-bound", "--n", "3", "--q", "0.3", "--chi", "0.5",
                 "--eps", "0.2", "--delta", "0.125"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hmin_lower"] is not None
    assert payload["bits_per_round"] == pytest.approx(payload["hmin_lower"] / 3.0)


def test_entropy_bound_rate_curve_path(capsys):
    assert main(["entropy-bound", "--game", "chsh", "--n", "100000", "--q", "0.05",
                 "--chi", "0.85", "--b", "0.05", "--slack-constant", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ideal_bits"] > 0
    assert payload["soundness_error"] is not None


def test_verify_json_and_exit_code(capsys):
    assert main(["verify", "--suite", "binary-disturbance", "--trials", "100",
                 "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == 0
    assert payload["min_margin"] >= -1e-10


def test_verify_csv(capsys):
    assert main(["verify", "--suite", "uniform-convexity", "--trials", "20",
                 "--seed", "2", "--out", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "trial,dim,eps,lhs,rhs,margin"
    assert len(lines) == 22


def test_verify_and_seesaw_reject_counts_below_one(capsys):
    for argv in (
        ["verify", "--suite", "chain-disturbance", "--trials", "0"],
        ["verify", "--suite", "uniform-convexity", "--trials", "-2"],
        ["seesaw", "--game", "chsh", "--dims", "2,2", "--restarts", "0"],
        ["seesaw", "--game", "chsh", "--dims", "2,2", "--iters", "0"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "must be at least 1" in captured.err


def test_magic_square_demo(capsys):
    assert main(["magic-square-demo"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert main(["magic-square-demo", "--out", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_validate_catalog_and_files(tmp_path, capsys):
    assert main(["validate", "--game", "chsh", "--device", "chsh:optimal"]) == 0
    capsys.readouterr()
    game_path = tmp_path / "game.json"
    assert main(["validate", "--game", "chsh", "--dump", str(game_path)]) == 0
    capsys.readouterr()
    assert game_path.exists()
    assert main(["validate", "--game", str(game_path)]) == 0
    capsys.readouterr()


def test_validate_broken_file_exits_one(tmp_path, capsys):
    game_path = tmp_path / "game.json"
    main(["validate", "--game", "chsh", "--dump", str(game_path)])
    capsys.readouterr()
    data = json.loads(game_path.read_text())
    data["distribution"] = [0.5, 0.1, 0.1, 0.1]
    game_path.write_text(json.dumps(data))
    assert main(["validate", "--game", str(game_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["game"]["ok"]


def test_player_outputs_outside_the_game_are_refused(tmp_path, capsys):
    game_path = tmp_path / "game.json"
    main(["validate", "--game", "chsh", "--dump", str(game_path)])
    capsys.readouterr()
    data = json.loads(game_path.read_text())
    data["players"][0]["outputs"] = [0, 1, 2]
    game_path.write_text(json.dumps(data))
    game = str(game_path)
    assert main(["validate", "--game", game]) == 1
    out = capsys.readouterr().out
    assert '"ok": false' in out
    assert [v["check"] for v in json.loads(out)["game"]["violations"]] == ["player-structure"]
    assert main(["classical-value", "--game", game]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: invalid file {game!r}: player-structure")


def test_validate_malformed_device_file_prints_report(tmp_path, capsys):
    path = tmp_path / "device.json"
    save_device(misfit_projector_device(), path)
    assert main(["validate", "--device", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert "measurement-dim" in {v["check"] for v in payload["device"]["violations"]}


def halved_projector_file(path):
    """chsh:optimal with its first projector halved, which validate rejects."""
    data = device_to_dict(catalog.get_device("chsh:optimal"))
    proj = data["inputs"][0]["projectors"][0]
    proj["matrix"] = [[[re / 2, im / 2] for re, im in row] for row in proj["matrix"]]
    path.write_text(json.dumps(data))
    return str(path)


RUN_ARGV = {
    "simulate": ["simulate", "--n", "20", "--q", "0.3", "--chi", "0.5"],
    "enumerate": ["enumerate", "--n", "2", "--q", "0.3", "--chi", "0.5", "--eps", "0.2"],
    "entropy-bound": ["entropy-bound", "--n", "2", "--q", "0.3", "--chi", "0.5"],
}


@pytest.mark.parametrize("command", sorted(RUN_ARGV))
def test_file_that_validate_rejects_does_not_run(command, tmp_path, capsys):
    device = halved_projector_file(tmp_path / "device.json")
    assert main(["validate", "--device", device]) == 1
    violations = json.loads(capsys.readouterr().out)["device"]["violations"]
    assert "measurement-completeness" in {v["check"] for v in violations}
    assert main([*RUN_ARGV[command], "--device", device]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: invalid file {device!r}: measurement-projector")
    # a game outside the framework's score range [0, inf) is refused the same way
    path = tmp_path / "game.json"
    data = game_to_dict(toy_setup()[0])
    data["scoring"][0]["score"] = -1.0
    path.write_text(json.dumps(data))
    game = str(path)
    assert main([*RUN_ARGV[command], "--game", game]) == 1
    assert capsys.readouterr().err.startswith(f"error: invalid file {game!r}: score-range")


def object_letter(data):
    data["inputs"][0]["letter"] = {"a": 0}
    return data


# structurally broken files: each mutates the dict of a catalog object's file
MALFORMED_FILES = {
    "phi-number": ("device", lambda data: {**data, "phi": 5}),
    "inputs-null": ("device", lambda data: {**data, "inputs": None}),
    "top-level-list": ("device", lambda data: [data]),
    "object-letter": ("device", object_letter),
    "object-output": ("device", lambda data: {**data, "output_alphabet": [{}]}),
    "game-top-level-list": ("game", lambda data: [data]),
    "game-object-letter": ("game", lambda data: {**data, "input_alphabet": [{}, 1, 2, 3]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_is_an_error_not_a_traceback(case, tmp_path, capsys):
    kind, mutate = MALFORMED_FILES[case]
    path = tmp_path / f"{kind}.json"
    if kind == "device":
        data, run = device_to_dict(catalog.get_device("chsh:optimal")), RUN_ARGV["enumerate"]
    else:
        save_game(catalog.get_game("chsh"), path)
        data, run = json.loads(path.read_text()), ["classical-value"]
    path.write_text(json.dumps(mutate(data)))
    for argv in (["validate", f"--{kind}", str(path)], [*run, f"--{kind}", str(path)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: malformed file {str(path)!r}: ")


def test_unknown_catalog_device_lists_the_choices(capsys):
    assert main([*RUN_ARGV["enumerate"], "--device", "chsh:bogus"]) == 1
    assert "choose from ['classical', 'optimal']" in capsys.readouterr().err


# CHSH game files holding a number that is not finite -> the check validate reports
NON_FINITE_GAMES = {
    "nan-distribution": "distribution-finite",
    "nan-score": "score-range",
    "inf-score": "score-range",  # on a game marked unbounded
}


def non_finite_game(name: str) -> dict:
    data = game_to_dict(catalog.get_game("chsh"))
    if name == "nan-distribution":
        data["distribution"][0] = math.nan
    else:
        data["scoring"][0]["score"] = math.nan if name == "nan-score" else math.inf
        data["unbounded"] = name == "inf-score"
    return data


@pytest.fixture(scope="module")
def guard_games(tmp_path_factory):
    """Files of a 3-player game, of a 2-player game with (16^3)^2 strategies,
    and of the ``NON_FINITE_GAMES``."""
    folder = tmp_path_factory.mktemp("games")
    three = nonlocal_game("three", [(0,)] * 3, [(0, 1)] * 3, {(0, 0, 0): 1.0}, {}, (0, 0, 0))
    inputs = list(itertools.product(range(3), repeat=2))
    big = nonlocal_game("big", [range(3)] * 2, [range(16)] * 2, {a: 1 / 9 for a in inputs}, {},
                        (0, 0))
    for name, game in (("three", three), ("big", big)):
        save_game(game, folder / f"{name}.json")
    for name in NON_FINITE_GAMES:
        (folder / f"{name}.json").write_text(json.dumps(non_finite_game(name)))
    return folder


# argv -> (exit code, stderr prefix); "{games}" is the guard_games folder
EXIT_CODES = {
    "enumerate --n 12 --q 0.3 --chi 0.5 --eps 0.2 --branch-cap 100":
        (2, "guard: (5 inputs x 4 outputs)^12 exceeds the 100 branch cap"),
    "seesaw --game chsh --dims 9,2": (2, "guard: per-player dims must lie in [1, 8]"),
    "seesaw --game {games}/three.json": (2, "guard: see-saw supports exactly 2-player"),
    "classical-value --game {games}/big.json": (2, "guard: 16777216 strategies exceed"),
    "simulate --n 10": (1, "error: the following arguments are required"),
    "classical-value --game nosuchgame": (1, "error: unknown catalog entry 'nosuchgame'"),
    "seesaw --game chsh --dims a,b": (1, "error: bad --dims"),
    "rate-curve --game magic-square --grid 0:1:3": (1, "error: no closed-form threshold"),
    "simulate --n 10 --q 0.3 --chi 0.5 --trials 0": (1, "error: trials must be at least 1, got 0"),
    "classical-value --game {games}/nan-distribution.json": (1, "error: invalid file"),
    "enumerate --game {games}/nan-distribution.json --n 2 --q 0.3 --chi 0.8 --eps 0.1":
        (1, "error: invalid file"),
    "classical-value --game {games}/nan-score.json": (1, "error: invalid file"),
    "classical-value --game {games}/inf-score.json": (1, "error: invalid file"),
}


@pytest.mark.parametrize("argv", sorted(EXIT_CODES))
def test_exit_code_table(argv, guard_games, capsys):
    code, prefix = EXIT_CODES[argv]
    assert main(argv.format(games=guard_games).split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(prefix)


@pytest.mark.parametrize("name", sorted(NON_FINITE_GAMES))
def test_validate_reports_a_non_finite_number(name, guard_games, capsys):
    assert main(["validate", "--game", str(guard_games / f"{name}.json")]) == 1
    report = json.loads(capsys.readouterr().out)["game"]
    assert not report["ok"]
    assert NON_FINITE_GAMES[name] in {v["check"] for v in report["violations"]}


def strict_json(text: str):
    """``json.loads`` refusing the tokens NaN, Infinity and -Infinity, as
    RFC 8259 parsers such as jq do."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


# argv -> (path to a non-finite number in its JSON stdout, that number's
# string); the argv of criterion 10 print only finite numbers, so None
STRICT_JSON_ARGV = {
    "enumerate --n 3 --q 0.3 --chi 5 --eps 0.1": (["renyi_randomness"], "Infinity"),
    "entropy-bound --n 3 --q 0.3 --chi 5 --eps 0.1": (["hmin_lower"], "Infinity"),
    "validate --game {games}/nan-score.json": (["game", "violations", 0, "deviation"], "NaN"),
    "simulate --n 1000 --q 0.1 --chi 0.5 --seed 42 --trials 5": None,
    # criterion 10 runs this suite with --out csv, which is not JSON
    "verify --suite uniform-convexity --trials 100 --seed 4": None,
    "enumerate --n 3 --q 0.3 --chi 0.8 --eps 0.1": None,
    "seesaw --game chsh --restarts 2 --seed 5": None,
}


@pytest.mark.parametrize("argv", sorted(STRICT_JSON_ARGV))
def test_stdout_is_strict_json(argv, guard_games, capsys):
    main(argv.format(games=guard_games).split())
    payload = strict_json(capsys.readouterr().out)
    if STRICT_JSON_ARGV[argv] is not None:
        path, name = STRICT_JSON_ARGV[argv]
        for key in path:
            payload = payload[key]
        assert payload == name


def test_usage_error_exit_one():
    proc = run_cli(["simulate", "--n", "10"])
    assert proc.returncode == 1


def test_guard_exit_two():
    proc = run_cli(["enumerate", "--n", "12", "--q", "0.3", "--chi", "0.5",
                    "--eps", "0.2", "--branch-cap", "100"])
    assert proc.returncode == 2


@pytest.mark.parametrize("semantics", [[], ["--memory"]], ids=["fresh", "memory"])
def test_branch_cap_guard_at_large_n_and_at_the_boundary(semantics, capsys):
    # (5 inputs x 4 outputs)^N: the guard decides N = 1e8 without forming 20^N
    argv = ["enumerate", "--q", "0.3", "--chi", "0.8", "--eps", "0.1", *semantics]
    start = time.perf_counter()
    assert main([*argv, "--n", "100000000"]) == 2
    assert time.perf_counter() - start < 1.0
    assert main([*argv, "--n", "5", "--branch-cap", "3199999"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "guard: (5 inputs x 4 outputs)^5 exceeds the 3199999 branch cap")
    # a cap of 20^5 = 3200000 admits N = 5 on both paths; the CHSH device's
    # projectors have rank 1, so --memory runs the transfer DP, not 3.2e6 leaves
    start = time.perf_counter()
    assert main([*argv, "--n", "5", "--branch-cap", "3200000"]) == 0
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 5
    if semantics:
        assert elapsed < 1.0
        entry = catalog.chsh()
        assert out["mass"] == pytest.approx(
            memory_state_mass(entry.game, entry.device, 5, 0.3, 0.8), rel=1e-12, abs=0)


def test_unknown_game_exit_one():
    proc = run_cli(["classical-value", "--game", "nosuchgame"])
    assert proc.returncode == 1


def toy_files(tmp_path):
    """The toy game and device written to files."""
    toy_game, toy_device = toy_setup()
    game_spec, device_spec = str(tmp_path / "game.json"), str(tmp_path / "device.json")
    save_game(toy_game, game_spec)
    save_device(toy_device, device_spec)
    return game_spec, device_spec


# game, device, q, chi, fresh-state N, memory N (the in-place path loops over rounds)
SIMULATE_CASES = {
    "chsh-optimal": ("chsh", "chsh:optimal", 0.1, 0.85, 5000, 200),
    "chsh-classical": ("chsh", "chsh:classical", 0.1, 0.75, 5000, 200),
    "magic-square-combined": ("magic-square", "magic-square:combined", 0.3, 0.9, 200, 2),
    "toy": (None, None, 0.3, 0.1, 300, 100),
}


@pytest.mark.parametrize("memory", [False, True], ids=["fresh", "memory"])
@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_runs_match_transcripts(case, memory, tmp_path, capsys):
    game_spec, device_spec, q, chi, n_fresh, n_memory = SIMULATE_CASES[case]
    if game_spec is None:
        game_spec, device_spec = toy_files(tmp_path)
        game, device = load_game(game_spec), load_device(device_spec)
    else:
        game, device = catalog.get_game(game_spec), catalog.get_device(device_spec)
    n, seed, trials = (n_memory if memory else n_fresh), 40, 50
    argv = ["simulate", "--game", game_spec, "--device", device_spec, "--n", str(n),
            "--q", str(q), "--chi", str(chi), "--seed", str(seed), "--trials", str(trials)]
    assert main(argv + (["--memory"] if memory else [])) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = []
    for k in range(trials):
        tr = protocol.simulate(game, device, protocol.ProtocolParams(n, q, chi, seed=seed + k),
                               fresh_state=not memory)
        expected.append({"seed": seed + k, "c": tr.c, "success": tr.success})
    assert payload["runs"] == expected


@pytest.mark.parametrize("case", ["one-trial", "memory", "top-seeds", "toy-files"])
def test_simulate_json_is_the_json_dumps_of_its_payload(case, tmp_path, capsys):
    game, device = catalog.get_game("chsh"), catalog.get_device("chsh:optimal")
    argv = ["simulate", "--n", "40", "--q", "0.3", "--chi", "0.5"]
    if case == "one-trial":
        argv += ["--trials", "1", "--seed", "3"]
    elif case == "memory":
        argv += ["--trials", "7", "--memory"]
    elif case == "top-seeds":
        argv += ["--trials", "5", "--seed", str(2**128 - 5)]
    else:
        game_spec, device_spec = toy_files(tmp_path)
        game, device = load_game(game_spec), load_device(device_spec)
        argv += ["--game", game_spec, "--device", device_spec, "--trials", "30", "--seed", "9"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    runs = []
    for k in range(payload["trials"]):
        params = protocol.ProtocolParams(40, 0.3, 0.5, seed=payload["seed"] + k)
        tr = protocol.simulate(game, device, params, fresh_state=payload["fresh_state"])
        runs.append({"c": tr.c, "seed": params.seed, "success": tr.success})
    assert len(runs) == int(argv[argv.index("--trials") + 1])
    if case == "toy-files":
        assert any(r["c"] % 1 for r in runs)
    payload["runs"] = runs
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_simulate_rejects_nonpositive_trials(trials, capsys):
    assert main(["simulate", "--n", "20", "--q", "0.3", "--chi", "0.5",
                 "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: trials must be at least 1, got {trials}" in captured.err


def test_threads_flag_is_unknown(capsys):
    assert main(["simulate", "--n", "20", "--q", "0.3", "--chi", "0.5",
                 "--threads", "2"]) == 1
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(RUN_ARGV))
def test_abstract_device_kind_is_malformed(command, tmp_path, capsys):
    # "abstract" is no device kind: such a file whose state is twice
    # chsh:optimal's would otherwise enumerate a success mass above 1
    data = device_to_dict(catalog.get_device("chsh:optimal"))
    data["kind"] = "abstract"
    data["phi"] = [[[2 * re, 2 * im] for re, im in row] for row in data["phi"]]
    path = tmp_path / "abstract.json"
    path.write_text(json.dumps(data))
    for argv in (["validate", "--device", str(path)], [*RUN_ARGV[command], "--device", str(path)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"malformed file {str(path)!r}: unknown device kind 'abstract'"
        assert captured.err == f"error: {message}\n"


def test_entropy_bound_reports_seed_scale(capsys):
    assert main(["entropy-bound", "--game", "chsh", "--n", "4096", "--q", "0.05",
                 "--chi", "0.8", "--b", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed_bits_scale_log2n_cubed"] == pytest.approx(12.0 ** 3)


@pytest.mark.parametrize("chi", ["nan", "inf"])
def test_non_finite_chi_exits_one(chi, capsys):
    # the rate-curve pipeline, enumeration and simulation share one chi domain and message
    rate_curve = ["entropy-bound", "--b", "0.5", "--chi", chi, "--q", "0.1", "--n", "1000",
                  "--w", "0.75", "--r", "4"]
    enumeration = ["enumerate", "--n", "1", "--q", "0.3", "--chi", chi, "--eps", "0.2"]
    simulation = ["simulate", "--n", "10", "--q", "0.3", "--chi", chi]
    for argv in (rate_curve, enumeration, simulation):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"chi must be nonnegative and finite, got {chi}" in captured.err


@pytest.mark.parametrize("flag, value", [("--b", "inf"), ("--b", "nan"), ("--b", "-inf"),
                                          ("--slack-constant", "nan"),
                                          ("--slack-constant", "inf"),
                                          ("--slack-constant", "-inf")])
def test_non_finite_b_and_slack_constant_exit_one(flag, value, capsys):
    argv = {"--b": "0.5", "--chi": "0.8", "--q": "0.1", "--n": "1000", "--w": "0.75", "--r": "4",
            "--slack-constant": "1.0", flag: value}
    # "--b=-inf", since argparse reads a bare "-inf" as an option
    assert main(["entropy-bound", *(f"{k}={v}" for k, v in argv.items())]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("seed, trials", [(-1, 1), (2**128 - 1, 2)])
def test_seed_outside_the_key_domain_exits_one(seed, trials, capsys):
    assert main(["simulate", "--n", "3", "--q", "0.3", "--chi", "0.5", "--seed", str(seed),
                 "--trials", str(trials)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "run seeds must lie in [0, 2**128)" in captured.err


def test_seed_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("RANDX_SEED", "99")
    assert main(["simulate", "--n", "20", "--q", "0.3", "--chi", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 99
    # flags beat the environment
    assert main(["simulate", "--n", "20", "--q", "0.3", "--chi", "0.5",
                 "--seed", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 7


def test_malformed_seed_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("RANDX_SEED", "abc")
    # a subcommand without --seed ignores it
    assert main(["magic-square-demo"]) == 0
    capsys.readouterr()
    # one with --seed reports a usage error
    assert main(["simulate", "--n", "20", "--q", "0.3", "--chi", "0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --seed: invalid int value: 'abc'" in captured.err
    # a flag still beats the environment
    assert main(["simulate", "--n", "20", "--q", "0.3", "--chi", "0.5", "--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7


SEESAW_ARGV = ["seesaw", "--game", "chsh", "--dims", "2,2", "--restarts", "2", "--seed", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "200", "--q", "0.3", "--chi", "0.5", "--seed", "5",
         "--trials", "3"],
        ["verify", "--suite", "chain-disturbance", "--trials", "40", "--seed", "8",
         "--out", "csv"],
        ["rate-curve", "--game", "chsh", "--grid", "0.75:0.8536:20"],
        ["enumerate", "--n", "2", "--q", "0.3", "--chi", "0.5", "--eps", "0.2"],
        SEESAW_ARGV,
    ],
)
def test_determinism_byte_identical(argv):
    a = run_cli(argv)
    b = run_cli(argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


# the commands of acceptance criterion 10
CRITERION_10_ARGV = [
    ["simulate", "--n", "1000", "--q", "0.1", "--chi", "0.5", "--seed", "42", "--trials", "5"],
    ["verify", "--suite", "uniform-convexity", "--trials", "100", "--seed", "4", "--out", "csv"],
    ["enumerate", "--n", "3", "--q", "0.3", "--chi", "0.8", "--eps", "0.1"],
    ["seesaw", "--game", "chsh", "--restarts", "2", "--seed", "5"],
]


@pytest.mark.parametrize("argv", CRITERION_10_ARGV, ids=" ".join)
def test_calls_in_one_process_print_the_bytes_of_a_new_process(argv, capsys):
    # a new process builds its parser and round plans anew; in this one the
    # second call reuses both
    fresh = run_cli(argv)
    assert fresh.returncode == 0
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == fresh.stdout


def test_seesaw_stdout_is_the_json_dumps_of_its_payload(capsys):
    assert main(SEESAW_ARGV) == 0
    out = capsys.readouterr().out
    result = classicaloracle.seesaw(catalog.get_game("chsh"), (2, 2), restarts=2, seed=3)
    payload = json.loads(out)
    payload["device"] = device_to_dict(result.device)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


# SHA-256 of the stdout of the Magic Square steps of the `exact` benchmark
# workload, recorded before the mixtures were summed from block stacks.
MAGIC_SQUARE_STDOUT = {
    "enumerate --game magic-square --device magic-square:combined --n 2 --q 0.3 --chi 0.5 --eps 0.1":
        "bc24500ce8cc72efd87e86a63ae81fb160ca639fe40fcfce5532f5d53a5ed505",
    "magic-square-demo": "65630e1970fc835fc3eb06edd5fb8237c15d4f84e529ed59d4aeadd52555adce",
    "classical-value --game magic-square":
        "c32384f6ec43a50ff8a1c40e58fc79e4a1e33fc8ede83731708432b519aa2794",
    "validate --device magic-square:combined":
        "6543c1b066921111fb7d567b945e333a4bab9e76431417c3e028d5fe6a331fc8",
}


@pytest.mark.parametrize("argv", sorted(MAGIC_SQUARE_STDOUT))
def test_magic_square_steps_keep_their_bytes(argv, capsys):
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == MAGIC_SQUARE_STDOUT[argv]


# SHA-256 of the stdout of enumeration on every route, recorded before fresh
# and rank-1 --memory enumeration ran one lattice DP: the `exact` benchmark
# workload's CHSH steps, long runs on both semantics, the toy game and device
# written to files (three score classes), and the tree on a Magic Square device.
ENUMERATE_STDOUT = {
    "enumerate --n 5 --q 0.3 --chi 0.8 --eps 0.1":
        "22566c1dc86bc82d00301fa372e9e722bc8b8ef8053625900a80939b9a055f0c",
    "enumerate --n 3 --q 0.3 --chi 0.8 --eps 0.1 --memory":
        "45296aee73b4814ab4048abece0c030ca8fd29f0164f1267b242de76cc3d2d48",
    "entropy-bound --n 4 --q 0.3 --chi 0.5 --eps 0.2 --delta 0.125":
        "9c2591f2bacdccd399d9e335e0540a458e0f8ab539d714b670a1f842f88cb907",
    "enumerate --device chsh:classical --n 6 --q 0.05 --chi 0.84 --eps 0.1 --memory --branch-cap 64000000":
        "7884e171e7b2a2866cbcdb3ae1725e2cc2053448ed2f400d7c520ec5137ddb53",
    f"enumerate --n 20 --q 0.3 --chi 0.8 --eps 0.1 --branch-cap {20**20}":
        "4e0fee14d274543e6e90c05ce0163b7f81de847860735b6cd24bf56d43c0c8a6",
    f"enumerate --n 20 --q 0.3 --chi 0.8 --eps 0.1 --memory --branch-cap {20**20}":
        "47c9b1cdce0d64a985300b9c37f3fc0a0f50f3310c0ac90ee224f81086f7d229",
    "enumerate --game toy-game --device toy-device --n 4 --q 0.3 --chi 0.5 --eps 0.2":
        "20a2404b43d258b46d5eb54b453e720b790ea6071f5603b3f5fa6db0014c3b0e",
    "enumerate --game toy-game --device toy-device --n 4 --q 0.3 --chi 0.5 --eps 0.2 --memory":
        "b5d1bb7d26ca4dcfb6a1973347c12190c013d028ec15e985e0bb7b9f3bd2b2d0",
    "enumerate --game magic-square --device magic-square:combined --n 1 --q 0.3 --chi 0.5 --eps 0.1 --memory":
        "8b2e3d2aa3495bf81fecf85d4cad626ab65f7566d25c7dd340776f889216ec88",
}


@pytest.mark.parametrize("argv", sorted(ENUMERATE_STDOUT))
def test_enumeration_keeps_its_bytes(argv, tmp_path, capsys):
    files = dict(zip(("toy-game", "toy-device"), toy_files(tmp_path)))
    assert main([files.get(word, word) for word in argv.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ENUMERATE_STDOUT[argv]


@pytest.mark.parametrize("dims", ["2,2,2", "2", "a,b", ""])
def test_seesaw_rejects_bad_dims(dims, capsys):
    assert main(["seesaw", "--game", "chsh", "--dims", dims]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad --dims {dims!r}, expected two integers such as 2,2\n"


# SHA-256 of a Magic Square see-saw witness file, recorded before each
# letter's projectors were stored as one stack.
WITNESS_FILE_SHA256 = "c853d5802d4d906a6b43490883b32b8fe2a8038c7b805f572120a4697b22e649"


# SHA-256 of the stdout of the `suites` benchmark workload's see-saw steps,
# recorded before restarts and inputs were stacked.
SUITES_SEESAW_STDOUT = {
    "seesaw --game chsh --dims 2,2 --constrain-abar --restarts 20 --seed 1":
        "12286b80f3d6bf158cc5041840babf626e9555f887cac4cf31a52bd42f985cb4",
    "seesaw --game chsh --dims 2,2 --constrain-abar --restarts 20 --seed 2":
        "41f5556c4229e856b4a33f5a70905373546c715f141c86189fdbf85562abcf9d",
    "seesaw --game chsh --dims 2,2 --constrain-abar --restarts 20 --seed 7":
        "503ff26fb8242fa41f5e861e5330d8d61cd527e5844855fc456fe87b88d531e5",
    "seesaw --game magic-square --dims 4,4 --restarts 2 --iters 10 --seed 1":
        "53e619e9e13668598e6530013c602a71686cc8bd548e8c33deead288c47df31e",
    "seesaw --game magic-square --dims 4,4 --restarts 2 --iters 10 --seed 2":
        "90c2f3c7739ea11e83821a4a13d08c70b9149a841b0a6fa837dba0ac6a12895f",
    "seesaw --game magic-square --dims 4,4 --restarts 2 --iters 10 --seed 7":
        "81be94c9100f4bac3296dedd62184eb99f3c21e3809bef46176c89c868fada54",
}


@pytest.mark.parametrize("argv", sorted(SUITES_SEESAW_STDOUT))
def test_suites_seesaw_steps_keep_their_bytes(argv, capsys):
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SUITES_SEESAW_STDOUT[argv]


@pytest.mark.parametrize(
    "argv",
    [
        ["seesaw", "--game", "chsh", "--seed", "-1"],
        ["verify", "--suite", "uniform-convexity", "--seed", "-1"],
    ],
)
def test_negative_seed_is_named(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a non-negative integer, got seed -1\n"


def test_seesaw_witness_file_keeps_its_bytes(tmp_path, capsys):
    path = tmp_path / "witness.json"
    argv = ["seesaw", "--game", "magic-square", "--dims", "4,4", "--restarts", "2",
            "--iters", "10", "--seed", "2", "--dump-device", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WITNESS_FILE_SHA256


def csv_text(header_row, rows) -> str:
    """The CSV text with every row joined at once: the reference for the
    blocks the CLI writes."""
    return "\n".join([HEADER, ",".join(header_row), *map(",".join, rows)]) + "\n"


@pytest.mark.parametrize("count", [1, _RECORD_BLOCK, _RECORD_BLOCK + 1, 100_000])
def test_csv_blocks_join_to_the_whole_text(count, capsys):
    game, device = catalog.get_game("chsh"), catalog.get_device("chsh:optimal")
    common = ["--q", "0.3", "--chi", "0.5", "--seed", "4", "--out", "csv"]
    assert main(["simulate", "--n", str(count), *common]) == 0
    params = protocol.ProtocolParams(count, 0.3, 0.5, seed=4)
    rounds = protocol.simulate(game, device, params).rounds()
    rows = [[str(i), str(t), _letterstr(a), _letterstr(x), _fmt(s)]
            for i, (t, a, x, s) in enumerate(rounds)]
    assert len(rows) == count
    assert capsys.readouterr().out == csv_text(["round", "t", "a", "x", "score"], rows)
    trials = max(count, 2)  # --trials 1 prints the one run's transcript
    assert main(["simulate", "--n", "2", "--trials", str(trials), *common]) == 0
    outcomes = protocol.simulate_outcomes(game, device, dataclasses.replace(params, n_rounds=2),
                                          trials)
    rows = [[str(k), _fmt(c), "1" if success else "0"] for k, (c, success) in enumerate(outcomes)]
    assert len(rows) == trials
    assert capsys.readouterr().out == csv_text(["trial", "c", "success"], rows)


def test_a_payload_the_walk_cannot_write_fails_after_part_of_its_text(monkeypatch, capsys):
    # a witness with a non-finite state, written one leaf per chunk: the
    # text before the state's key reaches stdout, then the run exits 1
    seesaw = classicaloracle.seesaw

    def broken(*args, **kwargs):
        result = seesaw(*args, **kwargs)
        state = np.full_like(result.device.state, np.nan)
        return dataclasses.replace(result, device=dataclasses.replace(result.device, state=state))

    monkeypatch.setattr(classicaloracle, "seesaw", broken)
    monkeypatch.setattr(devicemodel, "_FLUSH_PARTS", 1)
    assert main(["seesaw", "--game", "chsh", "--restarts", "1", "--iters", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: matrix has non-finite entries\n"
    assert captured.out.startswith('{\n  "constrained": false,\n  "device": {\n    "dims": [')
    assert '"projectors": [' in captured.out and '"output_alphabet": [' in captured.out
    assert '"phi"' not in captured.out
