"""The start-up budget and the export surface of the lazy package, and
the library's imports, which name only standard-library modules.

`import ckrep` loads no submodule, a `ck` verb loads only the modules it
runs, no verb loads `dataclasses` or `fractions` (nor `decimal` and
`numbers`, which it imports), a verb on exact phases leaves `cmath`
unloaded, and only JSON paths load `json`; each budget is checked in a
fresh interpreter, because this process has long since imported
everything.  A well-formed call of a verb loads no `argparse`, nor the
`gettext` and `locale` it imports; a refused call builds the full parser.
No module asks for `from __future__ import annotations`, so a verb
loads no `__future__`.  A verb that reads a class alone compiles a
bounded number of function lines, counted by `tools/startup.py`'s probe.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

import ckrep

PACKAGE = os.path.dirname(ckrep.__file__)

SUBMODULES = ckrep._SUBMODULES

EXPORTED = """
    ACycleSet BranchingError BranchingSystem CkError ComponentSkeleton Decomposition
    FiniteClass GPReport INFINITY IntegralClass MatrixMismatchError MatrixRealization ONE
    OpaqueTailClass PSpecSummary Phase PhaseError RepClass RepError RootSum TailClass TailWord
    TransitionMatrix ValidationReport Violation Word WordError a_cycle_set
    build_chain_system build_cycle_system canonical_rotation class_literal
    cross_check_standard decompose decompose_shift decompose_standard decomposition_from_json
    decomposition_json direct_sum dump_bfs enumerate_cyclic_classes equivalent
    expand_irreducible find_components finite_class format_tail format_word gp_vector_check
    integral_class is_admissible is_cyclically_admissible is_irreducible is_periodic
    load_bfs parse_class_literal parse_tail parse_word phases_equal phi_map power
    primitive_root pspec_summary realize shift_bfs standard_bfs state_value tail_canonical
    tail_class truncated_from_rules twist_by_gauge validate_bfs validate_matrix
    words_equivalent_infinite
""".split()

WORDS_ONLY = ["ckrep", "ckrep.cli", "ckrep.words"]

# The function lines that `twist`, `equiv` and `expand --class` may
# compile: 877 each, against 1101 while `reps` and `words` also held the
# realization, the report reader and the cycle structure of A.
CLASS_VERB_FUNCTION_LINES = 950


def run_python(code: str, *args: str, stdin: str | None = None) -> str:
    """Stdout of a fresh interpreter that imports this process's ckrep,
    reading `stdin` when it is given."""
    src = os.path.dirname(PACKAGE)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    return proc.stdout


LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'ckrep')"

# The modules are recorded before the probe imports json itself.
VERB_PROBE = """
import contextlib, io, sys
import ckrep.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = ckrep.cli.main(sys.argv[1:])
loaded = sorted(sys.modules)
import json
print(json.dumps([code, loaded]))
"""


@pytest.fixture
def a3_file(tmp_path):
    path = tmp_path / "a3.txt"
    path.write_text("011\n101\n110\n")
    return str(path)


# Standard-library modules no verb may load.
UNUSED = ("dataclasses", "fractions", "decimal", "numbers")


@pytest.fixture
def files(a3_file, tmp_path):
    """A3 and, as DUMP, the dump of the cycle carrier of P(12) over A3 at depth 1."""
    dump = tmp_path / "cycle.bfs"
    dump.write_text(
        "3 8\n1: 2->12, 32->~132, 312->~1312\n2: 12->2, 32->~232, 312->~2312\n"
        "3: 2->32, 12->312\n"
    )
    return {"A3": a3_file, "DUMP": str(dump)}


def all_loaded_by(argv: list[str], stdin: str | None = None) -> list[str]:
    """Every module in sys.modules after `main(argv)` returns."""
    code, modules = json.loads(run_python(VERB_PROBE, *argv, stdin=stdin))
    assert code == 0, argv
    assert not set(UNUSED) & set(modules), argv
    return modules


def loaded_by(argv: list[str], stdin: str | None = None) -> list[str]:
    """The package modules loaded by `main(argv)`."""
    return [m for m in all_loaded_by(argv, stdin) if m.split(".")[0] == "ckrep"]


# A report with each field the writer writes: every kind of class, an
# unresolved component and the tail marker.
REPORT = json.dumps(
    {
        "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        "level": "cyclic",
        "components": [
            {"kind": "finite", "word": "1212", "phase": {"num": 1, "den": 2}, "multiplicity": 1},
            {"kind": "tail", "word": "12", "multiplicity": "inf"},
            {"kind": "integral", "word": "123", "multiplicity": 2},
        ],
        "unresolved": [{"prefix": "0", "size": 2}],
        "tail_classes_present": True,
    }
)


class TestStartUpBudget:
    def test_import_ckrep_loads_no_submodule(self):
        out = run_python(f"import json, sys, ckrep; print(json.dumps({LOADED}))")
        assert json.loads(out) == ["ckrep"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["canon", "--word", "211"],
            ["classify-word", "--matrix", "A3", "--word", "121"],
        ],
        ids=["canon", "classify-word"],
    )
    def test_word_verbs_load_words_alone(self, a3_file, argv):
        assert loaded_by([a3_file if arg == "A3" else arg for arg in argv]) == WORDS_ONLY

    def test_pspec_loads_words_and_the_cycle_structure(self, a3_file):
        modules = loaded_by(["pspec", "--matrix", a3_file])
        assert modules == ["ckrep", "ckrep.cli", "ckrep.cycles", "ckrep.words"]

    @pytest.mark.parametrize(
        "argv, stdin, beyond",
        [
            (["decompose-shift", "--matrix", "A3", "--max-period", "4"], None, ["cycles"]),
            (["expand", "--class", "P(1212)"], None, []),
            (["expand"], REPORT, ["readback"]),
            (["twist", "--class", "P(12)", "--gauge", "1/4,1/4"], None, []),
            (["equiv", "--class", "P(12;1)", "--class", "P(21;1)"], None, []),
            (["state", "--matrix", "A3", "--class", "P(12)", "--left", "1", "--right", "1"], None,
             ["realization"]),
        ],
        ids=["decompose-shift", "expand", "expand-stdin", "twist", "equiv", "state"],
    )
    def test_class_verbs_skip_branching(self, a3_file, argv, stdin, beyond):
        # the class calculus is `reps`; each verb loads only the part of
        # the system side it runs, and none loads `branching`
        modules = loaded_by([a3_file if arg == "A3" else arg for arg in argv], stdin)
        expected = ["cli", "phases", "reps", "words", *beyond]
        assert modules == ["ckrep", *sorted(f"ckrep.{m}" for m in expected)]

    @pytest.mark.parametrize(
        "argv, beyond",
        [
            (["decompose-standard", "--matrix", "A3"], ["cycles"]),
            (["decompose-shift", "--matrix", "A3", "--dump-bfs", "DUMP"], ["cycles"]),
            (["gp-check", "--matrix", "A3", "--word", "12", "--power", "2"], ["realization"]),
        ],
        ids=["decompose-standard", "decompose-shift-dump", "gp-check"],
    )
    def test_system_verbs_load_branching(self, a3_file, tmp_path, argv, beyond):
        # no verb but `expand` reading a report loads `readback`, and only
        # `gp-check`, which twists, loads `realization`
        dump = str(tmp_path / "dump.bfs")
        modules = loaded_by([{"A3": a3_file, "DUMP": dump}.get(arg, arg) for arg in argv])
        expected = ["branching", "cli", "phases", "reps", "words", *beyond]
        assert modules == ["ckrep", *sorted(f"ckrep.{m}" for m in expected)]

    @pytest.mark.parametrize(
        "argv",
        [
            ["twist", "--class", "P(12)", "--gauge", "1/4,1/4"],
            ["equiv", "--class", "P(12)", "--class", "P(21)"],
            ["expand", "--class", "P(1212)"],
        ],
        ids=["twist", "equiv", "expand"],
    )
    def test_class_verbs_compile_a_bounded_number_of_function_lines(self, monkeypatch, argv):
        # the probe of `tools/startup.py`, imported without writing bytecode
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        tools = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
        spec = importlib.util.spec_from_file_location("startup", os.path.join(tools, "startup.py"))
        startup = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(startup)
        code, _, compiled, unrun = json.loads(run_python(startup.PROBE, *argv))
        assert code == 0 and 0 < unrun < compiled <= CLASS_VERB_FUNCTION_LINES

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-relations", "--matrix", "A3", "--system", "cycle", "--word", "12"],
            ["verify-relations", "--matrix", "A3", "--system", "chain", "--tail", "|(12)",
             "--dump-bfs", "DUMP"],
        ],
        ids=["verify-relations", "verify-relations-dump"],
    )
    def test_verify_relations_loads_branching_alone(self, a3_file, tmp_path, argv):
        # the relations check is `validate_bfs`: no realization, no phases
        dump = str(tmp_path / "dump.bfs")
        modules = loaded_by([{"A3": a3_file, "DUMP": dump}.get(arg, arg) for arg in argv])
        assert modules == ["ckrep", "ckrep.branching", "ckrep.cli", "ckrep.words"]

    def test_a_verb_loads_no_future_module(self):
        # the annotations need no `from __future__ import annotations`
        assert "__future__" not in all_loaded_by(["canon", "--word", "211"])

    def test_a_refused_word_loads_no_other_library_module(self):
        # `main` tells a caller's error by its base class in `words`, so
        # the error path imports no module that the verb did not
        code, modules = json.loads(run_python(VERB_PROBE, "canon", "--word", "0"))
        assert code == 1
        assert not {"ckrep.reps", "ckrep.phases", "ckrep.branching"} & set(modules)

    def test_decompose_bfs_loads_branching(self, a3_file, tmp_path):
        from ckrep import branching, words

        a3 = words.TransitionMatrix.from_text("011\n101\n110\n")
        dump = tmp_path / "dump.bfs"
        dump.write_text(branching.dump_bfs(branching.build_cycle_system(a3, (1, 2), 2)))
        modules = loaded_by(["decompose-bfs", "--matrix", a3_file, "--bfs", str(dump)])
        assert "ckrep.branching" in modules

    def test_dump_reader_loads_the_class_side_beyond_the_writer(self, a3_file, tmp_path):
        # writing a dump needs `branching` alone; decomposing it needs
        # `reps` and the `phases` its classes carry, but no `realization`
        dump = str(tmp_path / "dump.bfs")
        write = ["verify-relations", "--matrix", a3_file, "--system", "cycle", "--word", "12",
                 "--dump-bfs", dump]
        written = all_loaded_by(write)
        read = all_loaded_by(["decompose-bfs", "--matrix", a3_file, "--bfs", dump])
        assert set(written) <= set(read)
        assert set(read) - set(written) == {"ckrep.reps", "ckrep.phases"}

    def test_only_a_twisted_decompose_loads_the_realization(self):
        # an untwisted system's cycles all have phase 1; twists are checked
        # against the system's edges by `realization.realize`
        out = run_python(
            "import json, sys\n"
            "from ckrep.branching import build_cycle_system\n"
            "from ckrep.phases import Phase\n"
            "from ckrep.reps import decompose\n"
            "from ckrep.words import TransitionMatrix\n"
            "f = build_cycle_system(TransitionMatrix.from_text('011\\n101\\n110\\n'), (1, 2), 2)\n"
            "plain = decompose(f)\n"
            "before = 'ckrep.realization' in sys.modules\n"
            "twisted = decompose(f, {(1, '2'): Phase.exact(1, 3)})\n"
            "print(json.dumps([before, 'ckrep.realization' in sys.modules, repr(plain), repr(twisted)]))"
        )
        before, after, plain, twisted = json.loads(out)
        assert not before and after
        assert "('P(12)', 1)" in plain and "('P(12;1/3)', 1)" in twisted

    def test_branching_imports_only_array_beyond_the_cli(self):
        # dump_bfs and load_bfs work with what `ckrep.cli` and `ckrep.words`
        # load, and `array`, which holds the index tables of every system
        out = run_python(
            "import json, sys, ckrep.cli, ckrep.words\n"
            "before = set(sys.modules)\n"
            "import ckrep.branching\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        assert json.loads(out) == ["array", "ckrep.branching"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["canon", "--word", "211"],
            ["pspec", "--matrix", "A3"],
            ["decompose-standard", "--matrix", "A3"],
            ["gp-check", "--matrix", "A3", "--word", "12", "--power", "2"],
        ],
        ids=["canon", "pspec", "decompose-standard", "gp-check"],
    )
    def test_text_output_does_not_load_json(self, a3_file, argv):
        argv = [a3_file if arg == "A3" else arg for arg in argv]
        assert "json" not in all_loaded_by(argv)
        assert "json" in all_loaded_by([*argv, "--json"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose-standard", "--matrix", "A3", "--json"],
            ["decompose-shift", "--matrix", "A3", "--json"],
            ["decompose-bfs", "--matrix", "A3", "--bfs", "DUMP", "--json"],
            ["verify-relations", "--matrix", "A3", "--system", "cycle", "--word", "12"],
            ["gp-check", "--matrix", "A3", "--word", "12", "--power", "3", "--json"],
            ["expand", "--class", "P(121212;2/5)", "--json"],
            ["twist", "--class", "P(12;1/3)", "--gauge", "1/4,-3/4"],
            ["equiv", "--class", "P(12;1/2)", "--class", "P(21;3/6)"],
        ],
        ids=["decompose-standard", "decompose-shift", "decompose-bfs", "verify-relations",
             "gp-check", "expand", "twist", "equiv"],
    )
    def test_exact_phase_verbs_leave_cmath_unloaded(self, files, argv):
        argv = [files.get(arg, arg) for arg in argv]
        assert "cmath" not in all_loaded_by(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["canon", "--word", "211"],
        ["classify-word", "--matrix", "A3", "--word", "121"],
        ["pspec", "--matrix", "A3", "--json"],
        ["equiv", "--class", "P(12)", "--class", "P(21)"],
        ["expand", "--class", "P(1212)"],
        ["twist", "--class", "P(12)", "--gauge", "1/4,1/4"],
        ["state", "--matrix", "A3", "--class", "P(12)", "--left", "1", "--right", "1"],
        ["decompose-standard", "--matrix", "A3", "--truncate", "64"],
        ["decompose-shift", "--matrix", "A3", "--max-period", "3"],
        ["decompose-bfs", "--matrix", "A3", "--bfs", "DUMP"],
        ["verify-relations", "--matrix", "A3", "--system", "shift", "--word-len", "3"],
        ["gp-check", "--matrix", "A3", "--word", "12", "--power", "2", "--depth", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_well_formed_call_loads_no_argparse(monkeypatch, capsys, files, argv):
    # the verb table parses it: argparse, and the gettext and locale it
    # pulls in, stay unloaded
    modules = all_loaded_by([files.get(arg, arg) for arg in argv])
    assert not {"argparse", "gettext", "locale"} & set(modules)
    # a refused call is parsed by the full tree, for its usage text
    import argparse

    from ckrep import cli

    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert cli.main([argv[0], "--no-such-option"]) == 1
    assert built == [*cli._VERBS]
    assert capsys.readouterr().err.startswith("error: ")


class TestExportSurface:
    def test_exports_are_the_listed_names(self):
        assert ckrep.__all__ == sorted(EXPORTED)

    def test_from_import_and_dir(self):
        modules = [vars(importlib.import_module(f"ckrep.{m}")) for m in SUBMODULES]
        listed = dir(ckrep)
        for name in EXPORTED:
            namespace: dict = {}
            exec(f"from ckrep import {name}", namespace)
            assert any(ns.get(name) is namespace[name] for ns in modules), name
            assert name in listed, name

    def test_each_name_is_defined_where_the_table_says(self):
        # the test above accepts a name from any submodule, so a stale
        # re-export in a second module would pass it; this one does not
        values = {"ONE", "INFINITY", "Word", "RepClass"}
        for name, module in ckrep._MODULE_OF.items():
            obj = getattr(ckrep, name)
            if name in values:
                assert obj is vars(importlib.import_module(f"ckrep.{module}"))[name], name
            else:
                assert inspect.isclass(obj) or inspect.isfunction(obj), name
                assert obj.__module__ == f"ckrep.{module}", name

    def test_submodules_load_on_attribute_access(self):
        # the traced benchmark reaches the layers as attributes of the package
        out = run_python(
            "import sys, ckrep\n"
            f"mods = [getattr(ckrep, m) for m in {SUBMODULES!r}]\n"
            "print(all(mod is sys.modules[f'ckrep.{m}'] for mod, m in zip(mods, "
            f"{SUBMODULES!r})))"
        )
        assert out.strip() == "True"
        assert set(SUBMODULES) <= set(dir(ckrep))

    @pytest.mark.parametrize(
        "name",
        ["ACoordinate", "a_coordinate", "TreeNodeSet", "tree", "concat", "rotate", "precedes"]
        + ["coding_map", "CodingMap", "UnresolvedPointError", "nope"],
    )
    def test_unknown_name_raises_attribute_error(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(ckrep, name)
        with pytest.raises(ImportError):
            exec(f"from ckrep import {name}", {})


@pytest.mark.parametrize("module", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_library_imports_only_the_standard_library(module):
    # every absolute import, at module level or inside a function
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as handle:
        nodes = list(ast.walk(ast.parse(handle.read())))
    names = [a.name for node in nodes if isinstance(node, ast.Import) for a in node.names]
    names += [node.module for node in nodes if isinstance(node, ast.ImportFrom) and not node.level]
    assert {name.split(".")[0] for name in names} <= sys.stdlib_module_names
