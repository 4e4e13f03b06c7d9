import json
import os
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from congestlab.cli import main
from congestlab.params import ParamSchedule

MICRO = ParamSchedule(n=[1, 29], d=[6], alpha=[1], beta=[1], gamma=[1])


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


def test_gen_canonical_params_exit_2(tmp_path):
    params = str(tmp_path / "p.json")
    with open(params, "w") as fh:
        fh.write('{"canonical": {"n0": 2, "r": 1}}')
    runner = CliRunner()
    result = runner.invoke(main, ["gen", "--level", "1", "--params", params,
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2


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
    assert result.exit_code == 1


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
