"""The CI workflow and tools/compare_base.py name the same base comparisons:
each case runs in exactly one step, and each step runs an existing case.
No case is run here."""

import hashlib
import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "compare_base", ROOT / "tools" / "compare_base.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workflow_calls():
    """The case names of each compare_base.py call in tests.yml (read as
    text: PyYAML is not a test dependency)."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    calls = [line for line in text.splitlines()
             if "compare_base.py" in line and not line.lstrip().startswith("#")]
    prefix = re.compile(r'^\s*run: python3 tools/compare_base\.py '
                        r'"\$GITHUB_WORKSPACE" "\$RUNNER_TEMP/base"((?: \w+)*)$')
    for line in calls:
        assert prefix.match(line), f"not a one-line case step: {line!r}"
    return [prefix.match(line).group(1).split() for line in calls]


def test_every_workflow_call_names_existing_cases():
    cases = load_script().CASES
    for names in workflow_calls():
        assert names, "a workflow step runs every case"
        assert set(names) <= set(cases), f"unknown cases {set(names) - set(cases)}"


def test_every_case_runs_in_exactly_one_step():
    steps = workflow_calls()
    for name in load_script().CASES:
        assert sum(name in names for names in steps) == 1, name



#: A stand-in for perfbench/run.py: it writes the record of its run with an
#: outputs_sha256 made of its arguments and the tree's digest.txt, and with
#: --trace 1 a spans file of the names in the tree's spans.txt, each twice;
#: it prints a summary line, then the result, correct unless digest.txt says
#: "wrong".
FAKE_RUN = '''
import argparse, json, pathlib
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
tag = pathlib.Path("digest.txt").read_text()
results = pathlib.Path("perfbench/_work/results")
results.mkdir(parents=True, exist_ok=True)
(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
    json.dumps({"outputs_sha256": f"{args.seconds}/{args.trace}/{tag}"}))
if args.trace == "1" and args.seconds == "1":
    names = pathlib.Path("spans.txt").read_text().split()
    (results / f"{args.workload}-seed{args.seed}-trace1-spans.json").write_text(
        json.dumps([[0.5 * i, 0.25, name] for i, name in enumerate(names * 2)]))
print(args.workload, "summary")
print(json.dumps({"correct": tag != "wrong"}))
'''


def fake_tree(root, digest, spans=()):
    (root / "src" / "kinereco").mkdir(parents=True)
    (root / "src" / "kinereco" / "__init__.py").touch()
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "digest.txt").write_text(digest)
    (root / "spans.txt").write_text(" ".join(spans))
    return root


def test_the_bench_case_compares_every_run_and_needs_each_correct(
        tmp_path, capsys):
    """Six runs per tree, --seconds 1 --trace 0: equal digests pass, a
    different digest or a run that is not correct fails."""
    compare = load_script().compare
    head = fake_tree(tmp_path / "head", "d1")
    assert compare("bench", head, fake_tree(tmp_path / "base", "d1"))
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{w} {seed} 1/0/d1" for seed in (7, 11)
                   for w in ("field18", "sparse6", "export6")] + [
        "benchmark workloads at seeds 7 and 11: 6 benchmark runs with the "
        "same outputs_sha256 at head and base"]
    assert not compare("bench", head, fake_tree(tmp_path / "other", "d2"))
    assert capsys.readouterr().err.endswith("outputs_sha256 differs from the base\n")
    assert not compare("bench", head, fake_tree(tmp_path / "wrong", "wrong"))
    assert capsys.readouterr().err == (
        "benchmark workloads at seeds 7 and 11: field18 seed 7: benchmark not "
        "correct at the base\n")


def test_the_spans_case_needs_every_base_name_at_the_head(tmp_path, capsys):
    """One traced field18 seed 7 run per tree, --seconds 1: the head may
    record new names, but not lose one of the base's, and each run must be
    correct."""
    compare = load_script().compare
    head = fake_tree(tmp_path / "head", "d1", ("cli.detect", "wavelet.cwt",
                                               "ingest.read_table"))
    base = fake_tree(tmp_path / "base", "d2", ("wavelet.cwt", "cli.detect"))
    assert compare("spans", head, base)
    assert capsys.readouterr().out.splitlines() == [
        "cli.detect", "wavelet.cwt",
        "span names of a traced run: 2 base names recorded at head and base"]
    assert not compare("spans", base, head)
    captured = capsys.readouterr()
    assert "-ingest.read_table" in captured.out.splitlines()
    assert captured.err == ("span names of a traced run: the head lacks span "
                            "names from the base\n")
    assert not compare("spans", head, fake_tree(tmp_path / "wrong", "wrong",
                                                ("cli.detect",)))
    assert capsys.readouterr().err == (
        "span names of a traced run: field18 seed 7: benchmark not correct at "
        "the base\n")


#: A stand-in for ``python -m kinereco.cli simulate``: it writes the tree's
#: digest.txt to ``<out>/hb.csv``; on loud.json it prints the tree's
#: error.txt as its error line and exits 1, and otherwise it writes
#: ``<out>/truth.json`` and exits 0.
FAKE_CLI = '''
import pathlib, sys
args = sys.argv[1:]
tree = pathlib.Path(__file__).resolve().parents[2]
out = pathlib.Path(args[args.index("--out") + 1])
out.mkdir(parents=True, exist_ok=True)
(out / "hb.csv").write_text((tree / "digest.txt").read_text())
if args[args.index("--profile") + 1] == "loud.json":
    sys.stderr.write("kinereco: error: " + (tree / "error.txt").read_text() + "\\n")
    sys.exit(1)
(out / "truth.json").write_text("{}")
'''


def fake_cli_tree(root, digest, error):
    fake_tree(root, digest)
    package = root / "src" / "kinereco"
    (package / "cli.py").write_text(FAKE_CLI)
    (package / "profiles").mkdir()
    (package / "profiles" / "field_session_18_clean.json").write_text(
        '{"omega_components": [[{"amplitude": 2.0}]], "q_components": [[]]}')
    (package / "profiles" / "field_config.json").write_text('{"sensors": []}')
    (root / "error.txt").write_text(error)
    return root


def test_the_failures_case_compares_exits_error_lines_and_files(
        tmp_path, capsys):
    """Two failing simulate runs per tree, one into a clean run's session:
    the same exit codes, error lines and files pass; another error line or
    another file left fails."""
    compare = load_script().compare
    head = fake_cli_tree(tmp_path / "head", "d1", "DataError: outside")
    assert compare("failures", head,
                   fake_cli_tree(tmp_path / "base", "d1", "DataError: outside"))
    out = capsys.readouterr().out.splitlines()
    assert out[:6] == ["fresh simulate exit 1", "reused simulate exit 1",
                       "fresh", "  kinereco: error: DataError: outside",
                       "reused", "  kinereco: error: DataError: outside"]
    assert [line.split()[1] for line in out[6:-1]] == [
        "./clean.json", "./config.json", "./fresh.err", "./fresh/hb.csv",
        "./loud.json", "./reused.err", "./reused/hb.csv", "./reused/truth.json"]
    assert out[-1] == ("failing simulate runs: 2 failed runs with the same "
                       "error lines at head and base")
    for name, digest, error in (("error", "d1", "DataError: inside"),
                                ("files", "d2", "DataError: outside")):
        assert not compare("failures", head,
                           fake_cli_tree(tmp_path / name, digest, error))
        assert capsys.readouterr().err == (
            "failing simulate runs: exit codes or stderr differ from the base\n")


#: A stand-in for ``python -m kinereco.cli``: ``evaluate`` writes a report
#: holding the tree's digest.txt and both manifest keys, ``report`` copies
#: the file it reads to ``<out>/input.json``, and every other subcommand
#: does nothing.
FAKE_REPORT_CLI = '''
import json, pathlib, sys
args = sys.argv[1:]
tree = pathlib.Path(__file__).resolve().parents[2]
if args[0] == "evaluate":
    pathlib.Path(args[args.index("--out") + 1]).write_text(json.dumps({
        "events": [{"pair_id": 1, "f0_hz": 171.0, "label": "x"}],
        "aggregate": {"t_tests": {"v": {"p": 0.5, "t": -2.0}}},
        "digest": (tree / "digest.txt").read_text(),
        "manifest": {"seed": 7}, "manifest_sha256": "ab"}))
if args[0] == "report":
    assert "--hb" not in args
    out = pathlib.Path(args[args.index("--out") + 1])
    out.mkdir()
    (out / "input.json").write_text(pathlib.Path(args[2]).read_text())
'''


def test_the_reports_case_rewrites_the_report(tmp_path, capsys):
    """report reads the report evaluate wrote, with the keys of every
    object reversed, integral floats as ints and no manifest keys, written
    compactly; the same files pass, another file fails."""
    compare = load_script().compare

    def tree(name, digest):
        root = fake_cli_tree(tmp_path / name, digest, "")
        (root / "src" / "kinereco" / "cli.py").write_text(FAKE_REPORT_CLI)
        return root

    head = tree("head", "d1")
    assert compare("reports", head, tree("base", "d1"))
    out = capsys.readouterr().out.splitlines()
    rewritten = hashlib.sha256(
        b'{"digest":"d1","aggregate":{"t_tests":{"v":{"t":-2,"p":0.5}}},'
        b'"events":[{"label":"x","f0_hz":171,"pair_id":1}]}').hexdigest()
    assert [line.split()[1] for line in out[:-1]] == [
        "./config.json", "./profile.json", "./report.json",
        "./rewritten.json", "./tables/input.json"]
    assert [line.split()[0] for line in out[3:5]] == [rewritten] * 2
    assert out[-1] == ("reports evaluate did not write: 5 files identical at "
                       "head and base")
    assert not compare("reports", head, tree("other", "d2"))
    assert capsys.readouterr().err == (
        "reports evaluate did not write: outputs differ from the base\n")


def test_rewritten_reverses_keys_and_writes_integral_floats_as_ints():
    rewritten = load_script().rewritten({
        "events": [{"pair_id": 1, "f0_hz": 171.0, "label": "x"}],
        "aggregate": {"t_tests": {"v": {"p": 0.5, "t": -2.0,
                                        "significant": True}}},
        "n": None})
    assert json.dumps(rewritten) == (
        '{"n": null, "aggregate": {"t_tests": {"v": {"significant": true, '
        '"t": -2, "p": 0.5}}}, "events": [{"label": "x", "f0_hz": 171, '
        '"pair_id": 1}]}')
