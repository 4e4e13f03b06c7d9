import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from congestlab import params as params_module
from congestlab import protocols
from congestlab.cli import MEMORY_CAP, main
from congestlab.params import ParamSchedule, feasibility_check
from schedules import MICRO, SMALL2


def write_micro_params(path):
    with open(path, "w") as fh:
        fh.write(MICRO.to_json())
    return path


def test_gen_base_family(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["gen", "--level", "0", "--n0", "2",
                                  "--seed", "1", "--count", "3",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    files = sorted(os.listdir(tmp_path))
    assert "instance-0000.json" in files
    assert "instance-0000.meta.json" in files
    meta = json.loads((tmp_path / "instance-0000.meta.json").read_text())
    assert "starred" in meta and "config" in meta


def test_gen_restructured_sidecar(tmp_path):
    params = write_micro_params(str(tmp_path / "p.json"))
    runner = CliRunner()
    result = runner.invoke(main, ["gen", "--level", "1", "--params", params,
                                  "--family", "restructured",
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    meta = json.loads(
        (tmp_path / "out" / "instance-0000.meta.json").read_text())
    assert "collision_flag" in meta and "ids" in meta


@pytest.fixture
def no_expansion(monkeypatch):
    """Any expansion of a canonical schedule fails the test."""
    def expanded(n0, r):
        raise AssertionError(f"canonical_params({n0}, {r}) was expanded")

    monkeypatch.setattr(params_module, "canonical_params", expanded)


@pytest.mark.parametrize("r", [1, 3, 7, 40])
def test_gen_canonical_params_exit_2(tmp_path, no_expansion, r):
    # at r = 3 the largest layer size, 2 ** (34 ** 3), has 11832 decimal
    # digits, more than Python converts to a string; at r = 7 it alone
    # takes 6.6 GB, so the refusal must come before any size is built
    params = str(tmp_path / "p.json")
    with open(params, "w") as fh:
        fh.write(json.dumps({"canonical": {"n0": 2, "r": r}}))
    runner = CliRunner()
    result = runner.invoke(main, ["gen", "--level", "1", "--params", params,
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "memory cap" in lines[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("r", [1, 3000, 10000])
def test_gen_canonical_params_with_unit_sizes_exit_2(tmp_path, no_expansion,
                                                     r):
    # with n0 = 1 every layer size is 1, so level 1 has no room; expanded
    # level by level, r = 10000 took seconds and named every level's faults
    params = str(tmp_path / "p.json")
    with open(params, "w") as fh:
        fh.write(json.dumps({"canonical": {"n0": 1, "r": r}}))
    result = CliRunner().invoke(main, ["gen", "--level", "1", "--params",
                                       params, "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert result.stderr == (f"error: canonical schedule (n0=1, r={r}): "
                             f"every layer size is 1, too small for level 1\n")
    assert not (tmp_path / "out").exists()


def test_simulate_and_transcript(tmp_path):
    runner = CliRunner()
    runner.invoke(main, ["gen", "--level", "0", "--n0", "1", "--seed", "5",
                         "--out", str(tmp_path)])
    # a 0-round instance only supports 0-round protocols; re-generate at
    # level 1 for a message-bearing run
    params = write_micro_params(str(tmp_path / "p.json"))
    runner.invoke(main, ["gen", "--level", "1", "--params", params,
                         "--family", "recursive",
                         "--out", str(tmp_path / "l1")])
    dump = str(tmp_path / "t.jsonl")
    result = runner.invoke(main, [
        "simulate", "--instance", str(tmp_path / "l1" / "instance-0000.json"),
        "--protocol", "type-broadcast", "--dump-transcript", dump])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert "judged_success" in payload
    assert os.path.exists(dump)
    for line in open(dump).read().splitlines():
        entry = json.loads(line)
        assert entry["round"] == 1 and entry["len"] <= 1


def test_simulate_malformed_instance_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "r": 1, "pairs": [["A", 1, "B", 1, 9]]}')
    runner = CliRunner()
    result = runner.invoke(main, ["simulate", "--instance", str(bad),
                                  "--protocol", "all-no"])
    # set_type refuses the type-9 pair while the file is read
    assert_one_error_line(result)
    assert "type 9 outside [0, 2]" in result.stderr
    assert result.stdout == ""


def test_simulate_refuses_an_instance_with_a_pair_listed_twice(tmp_path):
    # the last copy used to win: this file loaded with no edge at all
    bad = tmp_path / "twice.json"
    bad.write_text('{"n": 1, "r": 1, "pairs": [["A", 1, "B", 1, 0], '
                   '["A", 1, "B", 1, 2]]}')
    result = CliRunner().invoke(main, ["simulate", "--instance", str(bad),
                                       "--protocol", "all-no"])
    assert_one_error_line(result)
    assert "pair (A1, B1) listed twice" in result.stderr
    assert result.stdout == ""


def test_simulate_unknown_protocol_exit_1(tmp_path):
    runner = CliRunner()
    runner.invoke(main, ["gen", "--level", "0", "--n0", "1",
                         "--out", str(tmp_path)])
    result = runner.invoke(main, [
        "simulate", "--instance", str(tmp_path / "instance-0000.json"),
        "--protocol", "nope"])
    assert result.exit_code == 1


def test_estimate_success_level0():
    runner = CliRunner()
    result = runner.invoke(main, ["estimate-success", "--protocol", "all-no",
                                  "--level", "0", "--n0", "1",
                                  "--trials", "400", "--seed", "0"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    lo, hi = payload["wilson_95"]
    assert lo <= 7 / 8 <= hi


def test_round_elim_report(tmp_path):
    params = write_micro_params(str(tmp_path / "p.json"))
    out = str(tmp_path / "report.json")
    runner = CliRunner()
    result = runner.invoke(main, ["round-elim", "--protocol",
                                  "constant-message", "--params", params,
                                  "--trials", "5", "--seed", "0",
                                  "--out", out])
    assert result.exit_code == 0, result.output
    payload = json.loads(open(out).read())
    assert payload["report"]["rounds_used"] == 0
    assert payload["report"]["trials"] == 5


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_round_elim_refuses_cap_below_one(tmp_path, cap):
    params = write_micro_params(str(tmp_path / "p.json"))
    result = CliRunner().invoke(main, ["round-elim", "--protocol",
                                       "constant-message", "--params", params,
                                       "--trials", "3", "--cap", cap])
    assert result.exit_code == 2
    assert "cap" in result.stderr


@pytest.mark.parametrize("command", [
    ["gen", "--level", "1", "--family", "restructured", "--out", "out"],
    ["round-elim", "--protocol", "constant-message", "--trials", "3"],
])
def test_restructured_commands_refuse_small2(tmp_path, command):
    params = str(tmp_path / "small2.json")
    with open(params, "w") as fh:
        fh.write(SMALL2.to_json())
    command = [str(tmp_path / a) if a == "out" else a for a in command]
    result = CliRunner().invoke(main, command + ["--params", params])
    assert result.exit_code == 2
    assert "RestructuredSlotViolation" in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["gen", "--level", "1", "--family", "recursive", "--out", "out"],
    ["gen", "--level", "1", "--family", "restructured", "--out", "out"],
    ["round-elim", "--protocol", "type-broadcast", "--trials", "3"],
])
def test_both_families_serve_micro_at_its_smallest_room(tmp_path, command):
    # n = 26 is the smallest layer size MICRO's room rule admits
    params = str(tmp_path / "micro26.json")
    with open(params, "w") as fh:
        fh.write(ParamSchedule(n=[1, 26], d=[6], alpha=[1], beta=[1],
                               gamma=[1]).to_json())
    command = [str(tmp_path / a) if a == "out" else a for a in command]
    result = CliRunner().invoke(main, command + ["--params", params])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("options", [
    ["--family", "base", "--level", "1", "--params", "micro.json"],
    ["--family", "restructured", "--level", "0", "--n0", "2"],
    ["--level", "1", "--n0", "2", "--params", "micro.json"],
    ["--level", "0", "--n0", "2", "--params", "micro.json"],
    ["--level", "0"],
])
def test_gen_refuses_option_pairings_before_writing(tmp_path, monkeypatch,
                                                    options):
    monkeypatch.chdir(tmp_path)
    write_micro_params("micro.json")
    result = CliRunner().invoke(main, ["gen"] + options + ["--out", "out"])
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_gen_family_defaults_to_the_level(tmp_path):
    params = write_micro_params(str(tmp_path / "p.json"))
    runner = CliRunner()
    for argv, family in ((["--level", "0", "--n0", "1"], "base"),
                         (["--level", "1", "--params", params], "recursive")):
        result = runner.invoke(main, ["gen"] + argv + [
            "--out", str(tmp_path / family)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["config"]["family"] == family


def test_estimate_success_level0_from_params(tmp_path):
    params = write_micro_params(str(tmp_path / "p.json"))
    result = CliRunner().invoke(main, [
        "estimate-success", "--protocol", "all-no", "--level", "0",
        "--params", params, "--trials", "50"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["config"]["params"] == params


# one malformed input per command, with its documented exit code
MALFORMED = {
    "gen": (["gen", "--level", "1", "--params", "{file}", "--out", "out"],
            '{"d": [6], "alpha": [1], "beta": [1], "gamma": [1]}', 1),
    "simulate": (["simulate", "--instance", "{file}", "--protocol", "all-no"],
                 '{"n": 2, "r": 1}', 1),
    "estimate-success": (["estimate-success", "--protocol", "all-no",
                          "--level", "1", "--params", "{file}"],
                         '{"n": [1, 29], "d": [6], ', 1),
    "round-elim": (["round-elim", "--protocol", "all-no", "--params",
                    "{file}"], '{"n": [1, 29], "d": [6]}', 2),
    "verify": (["verify", "--suite", "g0", "--out", "missing/x.json"],
               "", 1),
    "info": (["info", "--table", "{file}", "--measure", "entropy"],
             '{"coords": ["A"]}', 1),
}


@pytest.mark.parametrize("command", list(MALFORMED))
def test_every_command_fails_through_the_error_boundary(tmp_path,
                                                        monkeypatch, command):
    # a command added without a case here fails every case
    assert set(MALFORMED) == set(main.commands)
    monkeypatch.chdir(tmp_path)
    argv, text, code = MALFORMED[command]
    Path("input.json").write_text(text)
    result = CliRunner().invoke(main, [a.format(file="input.json")
                                       for a in argv])
    assert result.exit_code == code, result.output
    assert result.stderr.startswith("error:")
    assert result.stderr.count("\n") == 1, result.stderr
    assert isinstance(result.exception, SystemExit), result.exception


def assert_one_error_line(result, code=1):
    assert result.exit_code == code, result.output
    assert result.stderr.startswith("error:")
    assert result.stderr.count("\n") == 1, result.stderr


@pytest.mark.parametrize("argv", [
    ["gen", "--level", "1", "--params", "{file}", "--out", "out"],
    ["simulate", "--instance", "{file}", "--protocol", "all-no"],
    ["info", "--table", "{file}", "--measure", "entropy"],
], ids=["gen", "simulate", "info"])
def test_json_that_is_not_an_object_is_refused(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("input.json").write_text("[1, 2]")
    result = CliRunner().invoke(main, [a.format(file="input.json")
                                       for a in argv])
    assert_one_error_line(result)
    assert "JSON object" in result.stderr
    assert not (tmp_path / "out").exists()


def refuse_draws(*args, **kwargs):
    raise AssertionError("an instance was drawn")


@pytest.mark.parametrize("argv", [
    ["estimate-success", "--protocol", "all-no", "--level", "0", "--n0", "1",
     "--trials", "0"],
    ["estimate-success", "--protocol", "all-no", "--level", "1",
     "--params", "micro.json", "--trials", "-3"],
    ["round-elim", "--protocol", "all-no", "--params", "micro.json",
     "--trials", "0"],
    ["round-elim", "--protocol", "all-no", "--params", "micro.json",
     "--trials", "0", "--hybrids", "--out", "out"],
    ["gen", "--level", "0", "--n0", "1", "--count", "0", "--out", "out"],
    ["gen", "--level", "1", "--params", "micro.json", "--count", "-1",
     "--out", "out"],
])
def test_counts_below_one_are_refused_before_any_draw(tmp_path, monkeypatch,
                                                     argv):
    monkeypatch.chdir(tmp_path)
    write_micro_params("micro.json")
    for name in ("sample_g0", "sample_gr", "sample_gr_tilde"):
        monkeypatch.setattr(f"congestlab.cli.{name}", refuse_draws)
    monkeypatch.setattr("congestlab.elimination.sample_inner", refuse_draws)
    result = CliRunner().invoke(main, argv)
    assert_one_error_line(result)
    assert "at least 1" in result.stderr
    assert not (tmp_path / "out").exists()


def test_round_elim_hybrids(tmp_path):
    params = write_micro_params(str(tmp_path / "p.json"))
    out = str(tmp_path / "hyb")
    runner = CliRunner()
    result = runner.invoke(main, ["round-elim", "--protocol",
                                  "type-broadcast", "--params", params,
                                  "--trials", "2", "--hybrids",
                                  "--out", out])
    assert result.exit_code == 0, result.output
    for which in ("dtilde_real", "h1", "h2", "dfake"):
        assert os.path.exists(os.path.join(out, f"{which}.jsonl"))
    assert os.path.exists(os.path.join(out, "report.json"))


def test_verify_suite_passes():
    runner = CliRunner()
    result = runner.invoke(main, ["verify", "--suite", "g0"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["passed"]
    assert payload["checks"]["triangle_prob_exact"]


def test_info_measures(tmp_path):
    table = {"coords": ["A", "B"],
             "entries": [[0, 0, 0.25], [0, 1, 0.25],
                         [1, 0, 0.25], [1, 1, 0.25]]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table))
    runner = CliRunner()
    result = runner.invoke(main, ["info", "--table", str(path),
                                  "--measure", "entropy"])
    assert result.exit_code == 0, result.output
    assert abs(json.loads(result.output)["value"] - 2.0) < 1e-9
    result = runner.invoke(main, ["info", "--table", str(path),
                                  "--measure", "mi", "--a", "A", "--b", "B"])
    assert abs(json.loads(result.output)["value"]) < 1e-9
    result = runner.invoke(main, ["info", "--table", str(path),
                                  "--measure", "tvd", "--other", str(path)])
    assert json.loads(result.output)["value"] == 0.0


def test_info_missing_other_exit_1(tmp_path):
    table = {"coords": ["A"], "entries": [[0, 1.0]]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table))
    runner = CliRunner()
    result = runner.invoke(main, ["info", "--table", str(path),
                                  "--measure", "kl"])
    assert result.exit_code == 1


INFO_PAIRINGS = [
    ["--measure", "entropy", "--of", "A"],
    ["--measure", "cond-entropy", "--of", "A", "--given", "B"],
    ["--measure", "mi", "--a", "A", "--b", "B"],
    ["--measure", "cmi", "--a", "A", "--b", "B", "--given", "C"],
    ["--measure", "kl", "--other", "{table}"],
    ["--measure", "tvd", "--other", "{table}"],
]


def write_abc_table(path):
    cells = [[a, b, c, 1 / 8] for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    path.write_text(json.dumps({"coords": ["A", "B", "C"], "entries": cells}))
    return str(path)


def test_info_accepts_each_measure_with_its_options(tmp_path):
    table = write_abc_table(tmp_path / "t.json")
    runner = CliRunner()
    for argv in INFO_PAIRINGS:
        argv = [a.format(table=table) for a in argv]
        result = runner.invoke(main, ["info", "--table", table] + argv)
        assert result.exit_code == 0, (argv, result.output)


def test_info_rejects_options_its_measure_ignores(tmp_path):
    table = write_abc_table(tmp_path / "t.json")
    runner = CliRunner()
    for argv, unused in (
            (["--measure", "mi", "--given", "C", "--a", "A", "--b", "B"],
             "--given"),
            (["--measure", "cmi", "--of", "A", "--given", "C", "--a", "A",
              "--b", "B"], "--of")):
        result = runner.invoke(main, ["info", "--table", table] + argv)
        assert result.exit_code == 1, (argv, result.output)
        assert f"does not take {unused}" in result.output


def test_info_refuses_a_measure_without_its_targets(tmp_path):
    # an empty target list would answer 0.0 to a question nobody asked
    table = write_abc_table(tmp_path / "t.json")
    runner = CliRunner()
    for argv, empty in (
            (["--measure", "mi", "--a", "A"], "--b"),
            (["--measure", "mi", "--a", ",", "--b", "B"], "--a"),
            (["--measure", "cond-entropy", "--given", "B"], "--of"),
            (["--measure", "cond-entropy", "--of", ","], "--of"),
            (["--measure", "cmi", "--given", "C"], "--a and --b"),
            (["--measure", "cmi", "--a", "A", "--b", ",,"], "--b"),
            (["--measure", "kl"], "--other")):
        result = runner.invoke(main, ["info", "--table", table] + argv)
        assert_one_error_line(result, code=1)
        measure = argv[1]
        assert result.stderr == (f"error: --measure {measure} needs a "
                                 f"non-empty {empty}\n"), argv
        assert result.stdout == ""


def test_info_reads_an_empty_given_as_unconditional(tmp_path):
    # and entropy without --of is the entropy of every coordinate
    table = write_abc_table(tmp_path / "t.json")
    runner = CliRunner()
    for argv, value in ((["--measure", "cond-entropy", "--of", "A"], 1.0),
                        (["--measure", "cmi", "--a", "A", "--b", "B",
                          "--given", ","], 0.0),
                        (["--measure", "entropy"], 3.0)):
        result = runner.invoke(main, ["info", "--table", table] + argv)
        assert result.exit_code == 0, (argv, result.output)
        assert json.loads(result.stdout)["value"] == pytest.approx(value)


def readme_cli_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_micro_params("sched.json")
    write_abc_table(Path("joint.json"))
    examples = readme_cli_examples()
    assert len(examples) == 7
    runner = CliRunner()
    for argv in examples:
        assert argv[0] == "congestlab"
        result = runner.invoke(main, argv[1:])
        assert result.exit_code == 0, (argv, result.output)
    assert os.path.exists("out/base/instance-0002.json")
    assert os.path.exists("out/restructured/instance-0000.meta.json")


def test_info_refuses_a_nan_probability(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"coords": ["A"], "entries": [[0, 1.0], [1, NaN]]}')
    result = CliRunner().invoke(main, ["info", "--table", str(path),
                                       "--measure", "entropy"])
    assert_one_error_line(result)
    assert "probability at (1,) is not a number" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("entries, text", [
    ("[[0, true]]", "probability of outcome (0,) must be a number, got True"),
    ('[[0, "1.0"]]',
     "probability of outcome (0,) must be a number, got '1.0'"),
    ("[[0, 0.5], [1, 0.5], [0, 0.5]]", "outcome (0,) listed twice"),
], ids=["bool", "string", "outcome-twice"])
def test_info_refuses_an_entry_that_is_not_one_json_number(tmp_path, entries,
                                                          text):
    # each of these tables used to pass: exit 0 with a value
    path = tmp_path / "t.json"
    path.write_text(f'{{"coords": ["A"], "entries": {entries}}}')
    result = CliRunner().invoke(main, ["info", "--table", str(path),
                                       "--measure", "entropy"])
    assert_one_error_line(result)
    assert text in result.stderr
    assert result.stdout == ""


INFO = ["info", "--table", "{file}", "--measure", "entropy"]
SIMULATE = ["simulate", "--instance", "{file}", "--protocol", "all-no"]


@pytest.mark.parametrize("argv, text, message", [
    (INFO, '{"coords": ["A"], "entries": [[[0, 1], 1.0]]}',
     "entry [[0, 1], 1.0] must be an outcome of JSON scalars"),
    (INFO, '{"coords": ["A"], "entries": [1.0]}',
     "each entry must be a list, got 1.0"),
    (["info", "--table", "{file}", "--measure", "mi", "--a", "A", "--b", "B"],
     '{"coords": "AB", "entries": [[0, 1, 0.5], [1, 0, 0.5]]}',
     "coords must be a list, got 'AB'"),
    (INFO, '{"coords": ["A", 1], "entries": [[0, 0, 1.0]]}',
     "each coordinate must be a string, got ['A', 1]"),
    (INFO, '{"coords": ["A"], "entries": [[]]}',
     "entry [] must be an outcome of JSON scalars"),
    (SIMULATE, '{"n": 1, "r": 1, "pairs": 5}', "pairs must be a list, got 5"),
    (SIMULATE, '{"n": 1, "r": 1, "pairs": [5]}',
     "each pair must be a list, got 5"),
    (["gen", "--level", "1", "--params", "{file}", "--out", "out"],
     '{"n": [1, 29], "d": 6, "alpha": [1], "beta": [1], "gamma": [1]}',
     "d must be a list, got 6"),
], ids=["info-list-outcome", "info-bare-entry", "info-string-coords",
        "info-int-coordinate", "info-empty-entry", "simulate-int-pairs",
        "simulate-int-pair", "gen-int-field"])
def test_a_file_of_the_wrong_shape_is_refused(tmp_path, monkeypatch, argv,
                                              text, message):
    # the string coords were split into A and B, and mi printed 1.0; the
    # int coordinate was kept, and entropy printed 0.0; the others raised a
    # TypeError or an IndexError past the error boundary
    monkeypatch.chdir(tmp_path)
    Path("input.json").write_text(text)
    result = CliRunner().invoke(main, [a.format(file="input.json")
                                       for a in argv])
    assert_one_error_line(result)
    assert message in result.stderr and result.stdout == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, text", [
    (["gen", "--level", "1", "--params", "{file}", "--out", "out"],
     '{"n": [1.9, 29.7], "d": [6.5], "alpha": [true], "beta": [1], '
     '"gamma": [1]}'),
    (["gen", "--level", "1", "--params", "{file}", "--out", "out"],
     '{"canonical": {"n0": 2.0, "r": 1}}'),
    (["simulate", "--instance", "{file}", "--protocol", "all-no"],
     '{"n": 1, "r": 1, "pairs": [["A", 1, "B", 1, 0.7]]}'),
], ids=["schedule", "canonical", "instance"])
def test_a_number_that_is_not_an_integer_is_refused(tmp_path, monkeypatch,
                                                    argv, text):
    # int() used to truncate: n=[1, 29], d=[6], and a type-0.7 pair an edge
    monkeypatch.chdir(tmp_path)
    Path("input.json").write_text(text)
    result = CliRunner().invoke(main, [a.format(file="input.json")
                                       for a in argv])
    assert_one_error_line(result)
    assert "must be an integer" in result.stderr and result.stdout == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n0, r, message", [
    (0, 1, "n0 must be >= 1"), (0, 0, "n0 must be >= 1"),
    (2, -1, "r must be >= 0"),
])
def test_gen_canonical_params_below_their_range_exit_2(tmp_path, n0, r,
                                                       message):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"canonical": {"n0": n0, "r": r}}))
    result = CliRunner().invoke(main, ["gen", "--level", "1", "--params",
                                       str(params), "--out",
                                       str(tmp_path / "out")])
    assert_one_error_line(result, code=2)
    assert message in result.stderr
    assert not (tmp_path / "out").exists()


def test_a_canonical_schedule_with_r_0_is_built_and_capped(tmp_path):
    # r = 0 has the one layer size n0, so the built schedule's cap decides
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"canonical": {"n0": 3, "r": 0}}))
    argv = ["gen", "--level", "0", "--params", str(params), "--out"]
    result = CliRunner().invoke(main, argv + [str(tmp_path / "ok")])
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "ok" / "instance-0000.json")
                      .read_text())["n"] == 3
    params.write_text(json.dumps({"canonical": {"n0": 5_000_001, "r": 0}}))
    result = CliRunner().invoke(main, argv + [str(tmp_path / "big")])
    assert_one_error_line(result, code=2)
    assert "exceeds memory cap" in result.stderr
    assert not (tmp_path / "big").exists()


def test_an_explicit_schedule_above_the_cap_exit_2(tmp_path):
    # feasible, so only the cap on the built sizes refuses it
    schedule = ParamSchedule(n=[1, 6_000_000], d=[6], alpha=[1], beta=[1],
                             gamma=[1])
    assert feasibility_check(schedule) == []
    params = tmp_path / "p.json"
    params.write_text(schedule.to_json())
    result = CliRunner().invoke(main, ["gen", "--level", "1", "--params",
                                       str(params), "--out",
                                       str(tmp_path / "out")])
    assert_one_error_line(result, code=2)
    assert "largest layer size 6000000 exceeds memory cap" in result.stderr
    assert not (tmp_path / "out").exists()


def test_simulate_refuses_an_instance_above_the_cap(tmp_path, monkeypatch):
    # refused from the file's n, before any of the 3n players is built
    monkeypatch.setattr(protocols, "simulate", refuse_draws)
    instance = tmp_path / "big.json"
    instance.write_text(json.dumps({"n": MEMORY_CAP + 1, "r": 1,
                                    "pairs": []}))
    result = CliRunner().invoke(main, ["simulate", "--instance",
                                       str(instance), "--protocol", "all-no"])
    assert_one_error_line(result, code=2)
    assert (f"instance layer size {MEMORY_CAP + 1} exceeds memory cap "
            f"{MEMORY_CAP}" in result.stderr)
    assert result.stdout == ""


@pytest.mark.parametrize("n0", [0, 5_000_001])
def test_gen_level_0_refuses_a_size_outside_one_to_the_cap(tmp_path, n0):
    result = CliRunner().invoke(main, ["gen", "--level", "0", "--n0", str(n0),
                                       "--out", str(tmp_path / "out")])
    assert_one_error_line(result, code=2)
    assert f"layer size {n0} outside [1, memory cap" in result.stderr
    assert not (tmp_path / "out").exists()


def test_info_tvd_is_the_same_under_every_hash_seed(tmp_path):
    # string outcomes hash by the seed; a sum over a set of them took its
    # terms in another order under PYTHONHASHSEED 2 and 3
    rng = random.Random(0)
    tables = []
    for k in range(2):
        weights = [rng.random() for _ in range(40)]
        total = sum(weights)
        path = tmp_path / f"t{k}.json"
        path.write_text(json.dumps({"coords": ["X"], "entries": [
            [f"x{i}", w / total] for i, w in enumerate(weights)]}))
        tables.append(str(path))
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "congestlab.cli", "info", "--table",
             tables[0], "--measure", "tvd", "--other", tables[1]],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
