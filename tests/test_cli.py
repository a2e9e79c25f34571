import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from parityca import cli, verifier
from parityca import engine as E
from parityca import lattice as L
from parityca.rule import CORRECTED, build_rule_table
import golden


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_evolve_text_prints_the_published_rows(capsys):
    code, out, err = run(capsys, "evolve", "--rule", "corrected",
                         "--config", golden.FAULTY)
    assert code == 0
    assert out.splitlines() == golden.FAULTY_ROWS_CORRECTED
    assert "t0=13" in err


def test_evolve_original_shows_the_cycle(capsys):
    code, out, err = run(capsys, "evolve", "--rule", "original",
                         "--config", golden.FAULTY)
    assert code == 0
    assert out.splitlines() == golden.FAULTY_ROWS_ORIGINAL
    assert "cycle" in err and "period=13" in err


def test_evolve_json_document(capsys):
    code, out, _ = run(capsys, "evolve", "--config", golden.FAULTY,
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == golden.FAULTY_ROWS_CORRECTED
    assert doc["outcome"]["kind"] == "converged"
    # replay the document to close the loop
    rule = build_rule_table(CORRECTED)
    x = L.parse(doc["initial"])
    assert E.evolve(rule, x).t0 == doc["outcome"]["t0"]


def test_evolve_pbm_output(capsys):
    code, out, _ = run(capsys, "evolve", "--config", "10100",
                       "--steps", "2", "--format", "pbm")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "P1"
    assert lines[1] == "5 3"
    assert len(lines) == 5


def test_evolve_steps_override(capsys):
    code, out, _ = run(capsys, "evolve", "--config", golden.FAULTY, "--steps", "3")
    assert code == 0
    assert out.splitlines() == golden.FAULTY_ROWS_CORRECTED[:4]


def test_evolve_output_file(tmp_path, capsys):
    target = tmp_path / "diagram.pbm"
    code, out, _ = run(capsys, "evolve", "--config", "10100",
                       "--steps", "1", "--format", "pbm", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("P1\n5 2\n")


def test_evolve_unwritable_output_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "diagram.txt"
    code, out, err = run(capsys, "evolve", "--config", golden.FAULTY,
                         "--output", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_annotate_reports_switch_count(capsys):
    code, out, _ = run(capsys, "annotate", "--config", golden.SAMPLE19_ROWS[0])
    assert code == 0
    assert '"s": 8' in out
    doc = json.loads(out.splitlines()[-1])
    assert doc["s"] == 8
    assert out.splitlines()[1] == golden.SAMPLE19_ROWS[0]  # cells line under markers


def test_annotate_json_only(capsys):
    code, out, _ = run(capsys, "annotate", "--config", "111010101000111",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["boxes"] == [7]
    assert doc["s"] == 6


def test_rule_table_and_number(capsys):
    code, out, _ = run(capsys, "rule", "--emit", "table")
    assert code == 0
    table_text = out.strip()
    assert len(table_text) == 512
    code, out, _ = run(capsys, "rule", "--emit", "number")
    assert code == 0
    assert out.strip() == golden.CORRECTED_RULE_NUMBER
    assert int(table_text, 2) == int(out.strip())


def test_rule_diff_has_24_lines(capsys):
    code, out, _ = run(capsys, "rule", "--emit", "diff")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 24
    assert all("corrected=" in line and "original=" in line for line in lines)


def test_verify_streams_reports_and_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--rule", "corrected", "--sizes", "1..9")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert [d["n"] for d in docs] == [1, 3, 5, 7, 9]
    assert all(d["checked"] == d["correct"] for d in docs)


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--rule", "original", "--sizes", "13")
    assert code == 1
    doc = json.loads(out.splitlines()[0])
    assert doc["counterexamples"]


def test_verify_necklace_mode(capsys):
    code, out, _ = run(capsys, "verify", "--sizes", "9", "--mode", "necklace")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "necklace"
    assert doc["checked"] == 60  # binary necklaces of length 9


# The sha256 of the whole stdout of five verify runs: a full and a
# necklace sweep, and three invariant sweeps, one of whose budget of 3 steps
# leaves most rings unconverged, so that its reports list thousands of
# counterexamples next to the violations. A change to any report byte
# fails here.
PINNED_REPORTS = [
    (("--sizes", "9..15", "--invariants"),
     "dca0f03946dd01eda5b5462b61575dc7885ce096add759ed7a0895124419ecb7"),
    (("--sizes", "1..21", "--mode", "necklace"),
     "1a10dcd80bf3c62122244bf0f695bd0716e37130f8657edcf1e9349f408a423d"),
    (("--sizes", "9..13", "--invariants", "--budget", "3"),
     "67a9ee2888531a80a6a5453a8c7556b33b4702ce9caabdf1a55e8d803b47469d"),
    # Full mode merges live states from n = 13 on; at 13 the rotations of
    # the glider step on through the merges until Brent's check proves
    # their cycle.
    (("--sizes", "1..17"),
     "b075af8cbad6d0d5a73f052e67c6babdfcbb8851762f9b6c63b665ff7794df69"),
    # Two full slices that merge, with 4,029 violations between them.
    (("--sizes", "17", "--invariants"),
     "73147e7656225beff453b569e9372139e11053ec956ee590cafcf87456e35a78"),
]


@pytest.mark.parametrize(
    "args, digest", PINNED_REPORTS,
    ids=["invariants", "necklace", "invariants-budget", "full", "invariants-17"],
)
def test_verify_reports_are_pinned(capsys, args, digest):
    _, out, _ = run(capsys, "verify", "--rule", "original", *args)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_prints_counterexamples_and_exits_one(capsys):
    code, out, _ = run(capsys, "search", "--rule", "original", "--max-size", "13")
    assert code == 1
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 13
    assert {d["config"] for d in docs} == {
        str(L.rotate(L.parse(golden.FAULTY), k)) for k in range(13)
    }
    assert all(d["outcome"]["kind"] == "cycle" for d in docs)


def test_search_clean_rule_exits_zero(capsys):
    code, out, _ = run(capsys, "search", "--rule", "corrected", "--max-size", "9")
    assert code == 0
    assert out == ""


def test_bad_configuration_exits_two(capsys):
    code, _, err = run(capsys, "evolve", "--config", "0101")
    assert code == 2
    assert "usage" in err


def test_range_sizes_keep_only_odd_values(capsys):
    code, out, _ = run(capsys, "verify", "--sizes", "2..4")
    assert code == 0
    assert [json.loads(line)["n"] for line in out.splitlines()] == [3]


def test_bad_sizes_exit_two(capsys):
    for bad in ("4", "0", "3,6", "x", "-3..5", "0..5"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", f"--sizes={bad}"])
        assert exc.value.code == 2
        capsys.readouterr()


def test_reversed_size_range_exits_two_as_empty(capsys):
    for bad in ("5..3", "3..1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--sizes", bad])
        assert exc.value.code == 2
        assert f"empty size range: {bad!r}" in capsys.readouterr().err


def test_sizes_below_one_exit_two_before_the_range_is_listed(capsys, monkeypatch):
    # Listed first, -10000000000..5 would take about 180 GB.
    def no_range(*args):
        raise AssertionError("listed the sizes before checking the lower end")

    monkeypatch.setattr(cli, "range", no_range, raising=False)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--sizes=-10000000000..5"])
    assert exc.value.code == 2
    assert "odd and positive" in capsys.readouterr().err


def test_sizes_past_the_kernel_width_exit_two_at_once(capsys):
    for bad in ("65", "3,65", "61..65", "1..1000000000000"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--sizes", bad])
        assert exc.value.code == 2
        assert "at most 63" in capsys.readouterr().err


@pytest.mark.parametrize("sizes, message", [
    ("64", "odd and positive"),
    ("0,65", "odd and positive"),
    ("3,65", "at most 63"),
    ("64..64", "at most 63"),
    ("0..65", "at most 63"),
    ("4..3", "empty size range"),
    ("2..2", "odd and positive"),
])
def test_size_errors_keep_their_precedence(capsys, sizes, message):
    # A list names a bad size before a wide one; a range names its wide end first.
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--sizes", sizes])
    assert exc.value.code == 2
    assert f"{message}: {sizes!r}" in capsys.readouterr().err


def test_search_without_a_size_to_check_exits_two(capsys):
    for bad in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["search", "--max-size", bad])
        assert exc.value.code == 2
        capsys.readouterr()


def test_search_past_the_kernel_width_exits_two_at_once(capsys):
    # Accepted, 65 would first sweep every size up to 63.
    for bad in ("64", "65", "1000000000000"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["search", "--max-size", bad])
        assert exc.value.code == 2
        assert "at most 63" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["abc", "0", "-4", "257"])
@pytest.mark.parametrize("command", [["verify", "--sizes", "3"], ["search", "--max-size", "3"]],
                         ids=["verify", "search"])
def test_bad_workers_variable_exits_two(monkeypatch, capsys, command, bad):
    monkeypatch.setenv(cli.WORKERS_ENV, bad)
    with pytest.raises(SystemExit) as exc:
        cli.main(command)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert cli.WORKERS_ENV in captured.err


def test_workers_come_from_the_variable_else_one(monkeypatch, capsys):
    seen = []
    real = verifier.verify_size

    def spy(rule, n, **kwargs):
        seen.append(kwargs["workers"])
        return real(rule, n, **dict(kwargs, workers=1))

    monkeypatch.setattr(verifier, "verify_size", spy)
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    assert run(capsys, "verify", "--sizes", "3")[0] == 0
    monkeypatch.setenv(cli.WORKERS_ENV, "3")
    assert run(capsys, "verify", "--sizes", "3")[0] == 0
    assert run(capsys, "verify", "--sizes", "3", "--workers", "2")[0] == 0
    assert seen == [1, 3, 2]


def test_evolve_negative_steps_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["evolve", "--config", golden.FAULTY, "--steps", "-3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


BASE_ARGV = {
    "evolve": ["evolve", "--config", golden.FAULTY],
    "verify": ["verify", "--sizes", "3"],
    "search": ["search", "--max-size", "3"],
    "rule": ["rule", "--emit", "table"],
}
BAD_OPTIONS = (
    [(command, "--budget", value) for command in ("evolve", "verify", "search")
     for value in ("0", "-1", "x")]
    + [(command, "--workers", value) for command in ("verify", "search")
       for value in ("0", "-1", "x", "257")]
    + [("evolve", "--steps", value) for value in ("-1", "x")]
    + [(command, "--mode", "x") for command in ("verify", "search")]
    + [(command, "--rule", "x") for command in ("evolve", "verify", "search")]
    + [("rule", "--variant", "x")]
)


@pytest.mark.parametrize("command, option, value", BAD_OPTIONS,
                         ids=["-".join(row) for row in BAD_OPTIONS])
def test_bad_option_values_exit_two_and_name_the_option(monkeypatch, capsys,
                                                        command, option, value):
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    with pytest.raises(SystemExit) as exc:
        cli.main([*BASE_ARGV[command], option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: " in captured.err


@pytest.mark.parametrize("command, option, lo", [
    ("evolve", "--budget", 1),
    ("evolve", "--steps", 0),
    ("verify", "--budget", 1),
    ("verify", "--workers", 1),
    ("search", "--budget", 1),
    ("search", "--workers", 1),
    ("search", "--max-size", 1),
])
def test_integer_options_name_their_lower_bound(monkeypatch, capsys, command, option, lo):
    # One message per bound: the value just below it and a negative value read alike.
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    for value in (str(lo - 1), "-7"):
        with pytest.raises(SystemExit) as exc:
            cli.main([*BASE_ARGV[command], option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.endswith(f"argument {option}: must be at least {lo}: '{value}'")


def test_evolve_steps_are_capped(capsys, tmp_path):
    # The whole diagram is held before it is written: 100,000 rows of 13 cells.
    out = tmp_path / "rows.pbm"
    code, _, _ = run(capsys, "evolve", "--config", golden.FAULTY, "--steps", "100000",
                     "--format", "pbm", "--output", str(out))
    assert code == 0
    assert out.read_text().splitlines()[:2] == ["P1", "13 100001"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["evolve", "--config", golden.FAULTY, "--steps", "100001"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        "argument --steps: must be at most 100000: '100001'"
    )


@pytest.mark.parametrize("value", ["0", "-4"])
def test_workers_variable_names_its_lower_bound(monkeypatch, capsys, value):
    monkeypatch.setenv(cli.WORKERS_ENV, value)
    with pytest.raises(SystemExit):
        cli.main(BASE_ARGV["verify"])
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.endswith(f"{cli.WORKERS_ENV}: must be at least 1: '{value}'")


@pytest.mark.parametrize("argv, env, prefix", [
    (["verify", "--sizes", "3", "--workers", "257"], None, "argument --workers"),
    (["search", "--max-size", "3", "--workers", "257"], None, "argument --workers"),
    (["verify", "--sizes", "3"], "257", cli.WORKERS_ENV),
], ids=["verify", "search", "variable"])
def test_worker_counts_name_their_upper_bound(monkeypatch, capsys, argv, env, prefix):
    # Unbounded, a pool starts one process per chunk: 1,024 at necklace n = 29.
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    if env is not None:
        monkeypatch.setenv(cli.WORKERS_ENV, env)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"{prefix}: must be at most 256: '257'")


def test_shared_options_reach_the_library(monkeypatch, capsys):
    code, _, err = run(capsys, "evolve", "--rule", "original", "--config", golden.FAULTY,
                       "--budget", "5")
    assert code == 0
    assert "budget exceeded after 5 steps" in err
    code, out, _ = run(capsys, "search", "--max-size", "9", "--budget", "3")
    assert code == 1
    assert len(out.splitlines()) == 414
    monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
    necklace = ["search", "--rule", "original", "--max-size", "13", "--mode", "necklace"]
    _, one, _ = run(capsys, *necklace, "--workers", "1")
    _, two, _ = run(capsys, *necklace, "--workers", "2")
    assert one and two == one


def test_each_command_takes_its_own_options_and_runs_its_own_function():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {s[2:] for a in p._actions for s in a.option_strings if s != "-h"} - {"help"}
        for name, p in sub.choices.items()
    }
    assert options == {
        "evolve": {"rule", "budget", "config", "steps", "format", "output"},
        "annotate": {"config", "format"},
        "verify": {"rule", "budget", "mode", "workers", "sizes", "invariants"},
        "rule": {"variant", "emit"},
        "search": {"rule", "budget", "mode", "workers", "max-size"},
    }
    assert all(p.get_default("run") is getattr(cli, f"_cmd_{name}")
               for name, p in sub.choices.items())


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, keep", [
    (["verify", "--sizes", "1..15"], 10),
    # The diff reaches a buffered stdout in one write, which succeeds while
    # any reader is left, so here the reader is gone before the command runs.
    (["rule", "--emit", "diff"], 0),
], ids=["verify", "rule-diff"])
def test_a_reader_closing_the_pipe_ends_the_command_quietly(argv, keep):
    read_end, write_end = os.pipe()
    reader = os.fdopen(read_end, "rb")
    if keep == 0:
        reader.close()
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "parityca.cli", *argv],
                            stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    if keep:
        assert len(reader.read(keep)) == keep
        reader.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


_SINGLE_RING_COMMANDS = """
import sys
import parityca, parityca.cli
for argv in (
    ["evolve", "--rule", "original", "--config", "0001110101001", "--format", "pbm"],
    ["annotate", "--config", "0001110101001"],
    ["rule", "--emit", "diff"],
):
    assert parityca.cli.main(argv) == 0, argv
loaded = {"numpy", "multiprocessing"} & set(sys.modules)
assert not loaded, loaded
from parityca import verifier, verify_size
assert verify_size is verifier.verify_size and "numpy" in sys.modules
"""


def test_single_ring_commands_load_no_numpy():
    # In a fresh interpreter: the package, the CLI and the evolve, annotate
    # and rule commands import neither numpy nor multiprocessing; the
    # verifier's exports load it on first access.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _SINGLE_RING_COMMANDS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
