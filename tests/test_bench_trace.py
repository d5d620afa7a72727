"""The traced benchmark's span recorder, run against the library.

`bench/spans.py` wraps every public `ckrep` function and the arithmetic
methods of `RootSum` by name, and its constructor hook reads
`BranchingSystem.carrier`, so a library change that deletes or renames
one of them breaks `python3 bench/run.py --trace 1`.  This test builds
the recorder, installs it around one `ck` call in this process and
uninstalls it, so such a change fails here in a fraction of a second.
It imports from `bench/` and writes nothing there.
"""

import sys
from pathlib import Path

import pytest

import ckrep
import ckrep.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    """`bench/spans.py`, imported without writing bytecode; the bench
    modules it imported are dropped after."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    yield spans
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == BENCH:
            del sys.modules[name]


def test_recorder_wraps_one_call_and_restores_the_library(spans, tmp_path, capsys):
    a3 = tmp_path / "a3.txt"
    a3.write_text("011\n101\n110\n")
    argv = ["gp-check", "--matrix", str(a3), "--word", "12", "--power", "2", "--depth", "1"]
    recorder = spans.Recorder(ckrep)  # fails if a name it wraps is gone
    targets = recorder._targets
    assert targets
    recorder.install()
    try:
        assert all(vars(owner)[attr] is wrapper for owner, attr, _, wrapper in targets)
        recorder.invocation, recorder.verb = 0, argv[0]
        code = ckrep.cli.main(argv)
    finally:
        recorder.uninstall()
    capsys.readouterr()
    assert code == 0
    assert all(vars(owner)[attr] is original for owner, attr, original, _ in targets)
    summary = recorder.summary()
    assert summary["roots"] == 1 and summary["calls"]["cli.main"] == 1
    # the constructor hook read each built system's carrier
    assert recorder.counts["branching.carrier_points"] > 0
