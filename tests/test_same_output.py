"""tools/same_output.py still lists every case it digests: a case dropped
from its list would leave a change of output unseen. The cases are listed,
not run."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_output.py"


def test_same_output_lists_every_case_once(monkeypatch):
    # the tool puts tests/ and perfbench/ on the path and turns bytecode off
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("same_output", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    cases = tool.cases()
    labels = [label for _, label, _ in cases]
    assert len(set(labels)) == len(labels)
    assert Counter(kind for kind, _, _ in cases) == {
        "simulation": 155, "graph": 60, "cli": 18}
