"""The CI workflow and tools/compare_base.py name the same base comparisons:
each case runs in exactly one step, and each step runs an existing case.
No case is run here."""

import importlib.util
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

