import json

import pytest

from conftest import A1_ROWS, A3_ROWS
from ckrep import branching, reps
from ckrep.cli import main, render_report
from ckrep.phases import Phase
from ckrep.words import validate_matrix


@pytest.fixture
def a1_file(tmp_path):
    path = tmp_path / "a1.txt"
    path.write_text("11\n01\n")
    return str(path)


@pytest.fixture
def a3_file(tmp_path):
    path = tmp_path / "a3.txt"
    path.write_text("011\n101\n110\n")
    return str(path)


@pytest.fixture
def full10_file(tmp_path):
    path = tmp_path / "full10.txt"
    path.write_text("1111111111\n" * 10)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestVerbs:
    def test_decompose_standard_text(self, capsys, a3_file):
        code, out = run(capsys, "decompose-standard", "--matrix", a3_file)
        assert code == 0 and out == "P(12)\n"

    def test_decompose_standard_json(self, capsys, a1_file):
        code, out = run(capsys, "decompose-standard", "--matrix", a1_file, "--json")
        payload = json.loads(out)
        assert payload["components"] == [
            {"kind": "finite", "word": "1", "phase": {"den": 1, "num": 0}, "multiplicity": 1},
            {"kind": "finite", "word": "2", "phase": {"den": 1, "num": 0}, "multiplicity": "inf"},
        ]
        assert payload["matrix"] == [[1, 1], [0, 1]]
        assert code == 0

    def test_canon(self, capsys):
        code, out = run(capsys, "canon", "--word", "211")
        assert code == 0 and out == "112\n"

    def test_equiv(self, capsys):
        code, out = run(capsys, "equiv", "--class", "P(12;1)", "--class", "P(21;1)")
        assert code == 0 and out == "equivalent\n"
        code, out = run(capsys, "equiv", "--class", "P(1)", "--class", "P(1;1/2)")
        assert code == 0 and out == "not equivalent\n"

    def test_classify_word(self, capsys, a1_file):
        code, out = run(capsys, "classify-word", "--matrix", a1_file, "--word", "21")
        assert code == 0
        assert "admissible: no" in out

    def test_decompose_shift(self, capsys, a1_file):
        code, out = run(capsys, "decompose-shift", "--matrix", a1_file)
        assert code == 0
        assert out.splitlines()[0] == "P(1) (+) P(2)"
        assert "non-eventually-periodic classes: none" in out

    def test_decompose_bfs_round_trip(self, capsys, a3_file, tmp_path):
        a3 = validate_matrix(A3_ROWS)
        dump_path = tmp_path / "sys.txt"
        dump_path.write_text(branching.dump_bfs(branching.build_cycle_system(a3, (1, 2), 3)))
        code, out = run(capsys, "decompose-bfs", "--matrix", a3_file, "--bfs", str(dump_path))
        assert code == 0 and out == "P(12)\n"

    def test_decompose_bfs_from_stdin(self, capsys, monkeypatch, a3_file):
        import io

        a3 = validate_matrix(A3_ROWS)
        text = branching.dump_bfs(branching.build_cycle_system(a3, (1, 2), 3))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out = run(capsys, "decompose-bfs", "--matrix", a3_file, "--bfs", "-")
        assert code == 0 and out == "P(12)\n"

    def test_dump_bfs_flag(self, capsys, a3_file, tmp_path):
        target = tmp_path / "dump.txt"
        code, _ = run(
            capsys, "decompose-standard", "--matrix", a3_file, "--truncate", "40",
            "--dump-bfs", str(target),
        )
        assert code == 0
        a3 = validate_matrix(A3_ROWS)
        assert target.read_text() == branching.dump_bfs(branching.standard_bfs(a3, 40))

    def test_each_system_built_once_and_only_when_read(self, capsys, monkeypatch, a3_file, tmp_path):
        built = []
        for name in ("standard_bfs", "shift_bfs"):
            real = getattr(branching, name)
            monkeypatch.setattr(
                branching, name, lambda *args, _real=real, _name=name: built.append(_name) or _real(*args)
            )
        target = tmp_path / "dump.txt"
        run(capsys, "decompose-standard", "--matrix", a3_file, "--dump-bfs", str(target))
        assert built == ["standard_bfs"]
        run(capsys, "decompose-shift", "--matrix", a3_file, "--max-period", "3")
        assert built == ["standard_bfs"]
        code, _ = run(
            capsys, "decompose-shift", "--matrix", a3_file, "--max-period", "3",
            "--dump-bfs", str(target),
        )
        assert code == 0 and built == ["standard_bfs", "shift_bfs"]
        a3 = validate_matrix(A3_ROWS)
        assert target.read_text() == branching.dump_bfs(branching.shift_bfs(a3, 6))

    def test_expand_classes(self, capsys):
        code, out = run(capsys, "expand", "--class", "P(1212)")
        assert code == 0 and out == "P(12) (+) P(12;1/2)\n"

    def test_expand_from_stdin(self, capsys, monkeypatch, a1_file):
        import io

        payload = json.dumps(
            {
                "matrix": [[1, 1], [0, 1]],
                "level": "cyclic",
                "components": [
                    {"kind": "tail", "word": "2", "multiplicity": 1},
                    {"kind": "finite", "word": "11", "phase": {"num": 0, "den": 1},
                     "multiplicity": 2},
                ],
                "unresolved": [],
            }
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out = run(capsys, "expand")
        assert code == 0
        assert out == "Int(2) (+) P(1)^(2) (+) P(1;1/2)^(2)\n"

    def test_expand_tail_and_integral_from_stdin(self, capsys, monkeypatch):
        import io

        payload = {
            "matrix": [[1, 1], [1, 1]],
            "components": [
                {"kind": "tail", "word": "12", "multiplicity": 1},
                {"kind": "integral", "word": "1", "multiplicity": "inf"},
                {"kind": "integral", "word": "12", "multiplicity": 2},
            ],
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, out = run(capsys, "expand")
        assert code == 0 and out == "Int(1)^(inf) (+) Int(12)^(3)\n"

    def test_verify_relations(self, capsys, a3_file):
        code, out = run(capsys, "verify-relations", "--matrix", a3_file, "--truncate", "60")
        assert code == 0
        assert out == (
            "checked points: 30\ndomain checks: 90\ncompleteness checks: 30\nrelations: ok\n"
        )

    def test_verify_relations_json(self, capsys, a3_file):
        code, out = run(
            capsys, "verify-relations", "--matrix", a3_file, "--system", "cycle",
            "--word", "12", "--depth", "2", "--json",
        )
        assert code == 0
        assert json.loads(out) == {
            "checked_points": 8,
            "domain_checks": 24,
            "completeness_checks": 8,
            "violations": [],
            "ok": True,
        }

    def test_verify_relations_lists_violations(self, capsys, monkeypatch, a3_file):
        # the cycle carrier of P(12) at depth 1 with its edge f_1(2) = 12 deleted
        faulty = (
            "3 8\n1: 32->~132, 312->~1312\n2: 12->2, 32->~232, 312->~2312\n3: 2->32, 12->312\n"
        )
        monkeypatch.setattr(branching, "standard_bfs", lambda a, _: branching.load_bfs(faulty, a))
        code, out = run(capsys, "verify-relations", "--matrix", a3_file)
        assert code == 1
        assert out.splitlines()[3:] == [
            "violation: DomainMismatch symbols=(1,) points=('2',)",
            "violation: NotCovered symbols=() points=('12',)",
            "violation: DomainMismatch symbols=(2,) points=('12',)",
            "violation: DomainMismatch symbols=(3,) points=('12',)",
        ]

    def test_state(self, capsys, a3_file):
        code, out = run(
            capsys, "state", "--matrix", a3_file, "--class", "P(12)",
            "--left", "1", "--right", "1",
        )
        assert code == 0 and out == "1\n"
        code, out = run(
            capsys, "state", "--matrix", a3_file, "--class", "P(12)",
            "--left", "0", "--right", "0",
        )
        assert code == 0 and out == "1\n"

    def test_pspec(self, capsys, a1_file):
        code, out = run(capsys, "pspec", "--matrix", a1_file, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["finite"] and payload["class_count"] == 2 and payload["tails_empty"]

    def test_pspec_reports_a_failed_cross_check_on_an_infinite_spectrum(
        self, capsys, tmp_path, monkeypatch
    ):
        from ckrep import words

        enumerate_all = words.enumerate_cyclic_classes

        def drop_one_class(a, max_len):
            found = enumerate_all(a, max_len)
            return [entry for entry in found if entry[0] != (1, 1, 2)]

        path = tmp_path / "full2.txt"
        path.write_text("11\n11\n")
        code, out = run(capsys, "pspec", "--matrix", str(path))
        assert code == 0 and out.endswith("enumeration cross-check: ok\n")
        monkeypatch.setattr(words, "enumerate_cyclic_classes", drop_one_class)
        code, out = run(capsys, "pspec", "--matrix", str(path))
        assert "verdict: infinite\n" in out and "3:1 " in out
        assert out.endswith("enumeration cross-check: FAILED\n") and code == 1

    def test_gp_check(self, capsys, a3_file):
        code, out = run(capsys, "gp-check", "--matrix", a3_file, "--word", "12", "--power", "2")
        assert code == 0 and "fixed point: ok" in out

    def test_gp_check_failure(self, capsys, monkeypatch, a3_file):
        # twists j/(p+1) in place of j/p break the fixed point and the Gram matrix
        class WrongPhase(Phase):
            @staticmethod
            def exact(num, den=1):
                return Phase.exact(num, den + 1)

        monkeypatch.setattr(reps, "Phase", WrongPhase)
        code, out = run(capsys, "gp-check", "--matrix", a3_file, "--word", "12", "--power", "2")
        assert code == 1 and out == (
            "word: 12 power: 2\n"
            "fixed point: FAILED\n"
            "orthonormal family of 4: FAILED\n"
            "decomposition match: ok\n"
        )

    def test_gp_check_json(self, capsys, a3_file):
        argv = ["gp-check", "--matrix", a3_file, "--word", "12", "--power", "2", "--json"]
        code, out = run(capsys, *argv)
        assert code == 0 and json.loads(out) == {
            "word": "12",
            "p": 2,
            "fixed_point_ok": True,
            "orthonormal_ok": True,
            "family_size": 4,
            "decomposition_matches": True,
            "ok": True,
        }

    def test_twist(self, capsys):
        code, out = run(capsys, "twist", "--class", "P(12)", "--gauge", "1/4,1/4")
        assert code == 0 and out == "P(12;1/2)\n"

    def test_json_variants_of_scalar_verbs(self, capsys, a3_file):
        code, out = run(capsys, "canon", "--word", "211", "--json")
        assert code == 0 and json.loads(out) == {"word": "112"}
        code, out = run(capsys, "equiv", "--class", "P(12)", "--class", "P(21)", "--json")
        assert code == 0 and json.loads(out) == {"equivalent": True}
        code, out = run(
            capsys, "state", "--matrix", a3_file, "--class", "P(12)",
            "--left", "2", "--right", "2", "--json",
        )
        assert code == 0 and json.loads(out) == {"value": 0}
        code, out = run(capsys, "twist", "--class", "P(1)", "--gauge", "1/3,0", "--json")
        assert code == 0 and json.loads(out) == {"class": "P(1;1/3)"}


class TestContract:
    def test_failed_validation_names_labels(self, capsys, a3_file, tmp_path):
        dump = tmp_path / "cycle.txt"
        argv = ["--matrix", a3_file, "--system", "cycle", "--word", "12", "--depth", "1"]
        assert main(["verify-relations", *argv, "--dump-bfs", str(dump)]) == 0
        text = dump.read_text()
        assert text.startswith("3 8\n1: 2->12, 32->~132, ")
        dump.write_text(text.replace("1: 2->12, ", "1: "))  # drop the edge f_1(2) = 12
        capsys.readouterr()
        assert main(["decompose-bfs", "--matrix", a3_file, "--bfs", str(dump)]) == 1
        assert capsys.readouterr().err == (
            "error: system fails validation: Violation(kind='DomainMismatch', "
            "symbols=(1,), points=('2',), detail='missing')\n"
        )

    def test_validation_error_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("10\n10\n")  # zero column
        code = main(["decompose-standard", "--matrix", str(bad)])
        err = capsys.readouterr().err
        assert code == 1 and "column" in err

    def test_dump_with_repeated_source_exits_1(self, capsys, a3_file, tmp_path):
        dump = tmp_path / "sys.txt"
        dump.write_text("3 3\n1: a->b, a->c\n2: \n3: \n")
        code = main(["decompose-bfs", "--matrix", a3_file, "--bfs", str(dump)])
        err = capsys.readouterr().err
        assert code == 1 and "maps 'a' twice" in err

    @pytest.mark.parametrize("field", ["x 3", "3 y"])
    def test_dump_with_bad_header_exits_1(self, capsys, a3_file, tmp_path, field):
        dump = tmp_path / "sys.txt"
        dump.write_text(f"{field}\n1: a->b\n")
        code = main(["decompose-bfs", "--matrix", a3_file, "--bfs", str(dump)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: bad header field")

    def test_dump_with_bad_symbol_exits_1(self, capsys, a3_file, tmp_path):
        dump = tmp_path / "sys.txt"
        dump.write_text("3 2\nq: 1->2\n")
        code = main(["decompose-bfs", "--matrix", a3_file, "--bfs", str(dump)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: bad symbol 'q'")

    @pytest.mark.parametrize(
        "argv",
        [
            ["twist", "--class", "P(12)", "--gauge", "1/0,0"],
            ["twist", "--class", "P(12)", "--gauge", "x/4,0"],
            ["twist", "--class", "P(12)", "--gauge", "1/x,0"],
            ["twist", "--class", "P(12)", "--gauge", "nan+0i,0"],
            ["equiv", "--class", "P(1;1/0)", "--class", "P(1)"],
            ["state", "--matrix", "A3", "--class", "P(12;1/0)", "--left", "1", "--right", "1"],
        ],
    )
    def test_bad_phase_literal_exits_1(self, capsys, a3_file, argv):
        code = main([a3_file if arg == "A3" else arg for arg in argv])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["pspec", "--matrix", "NOT_UTF8"],
            ["pspec", "--matrix", "."],
            ["decompose-bfs", "--matrix", "A3", "--bfs", "NOT_UTF8"],
            ["decompose-bfs", "--matrix", "A3", "--bfs", "."],
            ["decompose-standard", "--matrix", "A3", "--dump-bfs", "."],
        ],
        ids=["matrix-not-utf8", "matrix-dir", "bfs-not-utf8", "bfs-dir", "dump-to-dir"],
    )
    def test_unreadable_or_unwritable_file_exits_1(self, capsys, a3_file, tmp_path, argv):
        not_utf8 = tmp_path / "latin1.txt"
        not_utf8.write_bytes(b"\xff1\n11\n")
        files = {"A3": a3_file, "NOT_UTF8": str(not_utf8)}
        code = main([files.get(arg, arg) for arg in argv])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: cannot ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "stdin, message",
        [
            ("not json", "not JSON"),
            ("{}", '"components" list'),
            ('{"components": [{"kind": "finite"}]}', "string kind and word"),
            ('{"components": [{"kind": "finite", "word": "1"}]}', "multiplicity"),
            ('{"components": [{"kind": "finite", "word": "1", "multiplicity": 0}]}',
             "multiplicity"),
            ('{"matrix": 5, "components": []}', '"matrix"'),
            ('{"components": [{"kind": "finite", "word": "1", "multiplicity": 1,'
             ' "phase": {"num": 1, "den": 0}}]}', "zero denominator"),
            ('{"components": [{"kind": "finite", "word": "1", "multiplicity": 1,'
             ' "phase": {"num": 1}}]}', "bad phase"),
            ('{"components": [{"kind": "cycle", "word": "1", "multiplicity": 1}]}',
             "unknown component kind 'cycle'"),
        ],
    )
    def test_expand_bad_stdin_exits_1(self, capsys, monkeypatch, stdin, message):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(["expand"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["pspec", "--max-len", "3"],
                "verdict: finite\nprimitive classes: 1\n"
                f"cycle words: {','.join(str(i) for i in range(1, 1101))}\n"
                "tail classes: empty\nprimitive counts by length: 1:0 2:0 3:0\n"
                "enumeration cross-check: ok\n",
            ),
            (
                ["decompose-shift", "--max-period", "3"],
                "(empty)\nnon-eventually-periodic classes: none\n",
            ),
        ],
        ids=["pspec", "decompose-shift"],
    )
    def test_matrix_with_a_long_cycle_exits_0(self, capsys, tmp_path, argv, expected):
        n = 1100
        path = tmp_path / "cycle.txt"
        path.write_text("".join("0" * ((i + 1) % n) + "1" + "0" * (n - 1 - (i + 1) % n) + "\n"
                                for i in range(n)))
        code, out = run(capsys, *argv, "--matrix", str(path))
        assert code == 0 and out == expected

    def test_pspec_at_length_3000_exits_0(self, capsys, tmp_path):
        path = tmp_path / "swap.txt"
        path.write_text("01\n10\n")
        code, out = run(capsys, "pspec", "--matrix", str(path), "--max-len", "3000")
        counts = " ".join(f"{k}:{int(k == 2)}" for k in range(1, 3001))
        assert code == 0 and out == (
            "verdict: finite\nprimitive classes: 1\ncycle words: 12\ntail classes: empty\n"
            f"primitive counts by length: {counts}\nenumeration cross-check: ok\n"
        )

    def test_usage_error_exits_1_with_help(self, capsys):
        code = main(["decompose-standard"])  # missing --matrix
        err = capsys.readouterr().err
        assert code == 1 and "usage" in err

    def test_unknown_word_literal(self, capsys, a1_file):
        code = main(["canon", "--word", "x1"])
        assert code == 1

    def test_internal_error_exits_2(self, capsys, a1_file, monkeypatch):
        def boom(*_args, **_kwargs):
            raise RuntimeError("invariant broken")

        monkeypatch.setattr("ckrep.reps.decompose_standard", boom)
        code = main(["decompose-standard", "--matrix", a1_file])
        err = capsys.readouterr().err
        assert code == 2 and "internal error" in err

    def test_byte_identical_reruns(self, capsys, a1_file):
        outs = set()
        for _ in range(2):
            _, out = run(capsys, "decompose-standard", "--matrix", a1_file, "--json")
            outs.add(out)
        assert len(outs) == 1

    def test_byte_identical_across_processes(self, a3_file):
        import os
        import subprocess
        import sys

        import ckrep

        # the child imports the same package as this process
        src = os.path.dirname(os.path.dirname(ckrep.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        outs = set()
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            for argv in (
                ["decompose-standard", "--matrix", a3_file, "--json"],
                ["decompose-shift", "--matrix", a3_file, "--max-period", "4"],
                ["pspec", "--matrix", a3_file, "--json"],
            ):
                proc = subprocess.run(
                    [sys.executable, "-m", "ckrep.cli", *argv],
                    capture_output=True,
                    text=True,
                    env=env,
                    check=True,
                )
                outs.add((tuple(argv), proc.stdout))
        assert len(outs) == 3

    def test_cli_is_thin_adapter(self, capsys, a1_file):
        # text and JSON outputs equal the library renderings verbatim
        a1 = validate_matrix(A1_ROWS)
        d = reps.decompose_standard(a1, cross_check_truncation=256)
        _, out = run(capsys, "decompose-standard", "--matrix", a1_file)
        assert out == render_report(d, "text") + "\n"
        _, out = run(capsys, "decompose-standard", "--matrix", a1_file, "--json")
        assert out == render_report(d, "json") + "\n"

    def test_empty_decomposition_renders(self):
        assert render_report(reps.Decomposition()) == "(empty)"

    def test_infinite_multiplicity_render_string(self, capsys, a1_file):
        _, out = run(capsys, "decompose-standard", "--matrix", a1_file)
        assert out == "P(1) (+) P(2)^(inf)\n"


# The options argparse must refuse to do without, verb by verb.
REQUIRED_OPTIONS = {
    "classify-word": ("--matrix", "--word"),
    "canon": ("--word",),
    "equiv": ("--class",),
    "decompose-standard": ("--matrix",),
    "decompose-shift": ("--matrix",),
    "decompose-bfs": ("--matrix", "--bfs"),
    "verify-relations": ("--matrix",),
    "state": ("--matrix", "--class", "--left", "--right"),
    "pspec": ("--matrix",),
    "gp-check": ("--matrix", "--word", "--power"),
    "twist": ("--class", "--gauge"),
}


@pytest.mark.parametrize(
    "verb, option", [(verb, option) for verb, options in REQUIRED_OPTIONS.items() for option in options]
)
def test_each_required_option_is_required(capsys, verb, option):
    verb, *rest = next(param.values[0] for param in GOLDEN if param.values[0][0] == verb)
    pairs = [rest[k : k + 2] for k in range(0, len(rest), 2) if rest[k] != option]
    code = main([verb, *(arg for pair in pairs for arg in pair)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines()[0] == f"error: the following arguments are required: {option}"


@pytest.mark.parametrize(
    "stdin, message",
    [
        ('{"components": [{"kind": "finite"}]}', "{'kind': 'finite'} needs a string kind and word"),
        (
            '{"components": [{"kind": "tail", "word": "1", "multiplicity": 0}]}',
            "{'kind': 'tail', 'word': '1', 'multiplicity': 0} needs multiplicity \"inf\" "
            "or a positive integer",
        ),
    ],
)
def test_expand_names_the_bad_component(capsys, monkeypatch, stdin, message):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(["expand"]) == 1
    assert capsys.readouterr() == ("", f"error: component {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--matrix", "A3", "--class", "P(12)", "--gauge", "1/4,1/4"], "gauge needs 3 phases, got 2"),
        (["--class", "P(13)", "--gauge", "1/4,1/4"], "gauge too short for word 13"),
    ],
    ids=["gauge-against-matrix", "gauge-against-word"],
)
def test_twist_gauge_errors(capsys, a3_file, argv, message):
    argv = [a3_file if arg == "A3" else arg for arg in argv]
    assert main(["twist", *argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_internal_error_names_its_type(capsys, a1_file, monkeypatch):
    def boom(*_args, **_kwargs):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr("ckrep.reps.decompose_standard", boom)
    assert main(["decompose-standard", "--matrix", a1_file]) == 2
    assert capsys.readouterr() == ("", "internal error: RuntimeError: invariant broken\n")


def test_a_closed_stdout_exits_1_quietly(capsys, monkeypatch):
    # as when `ck canon ... | head -0` closes the pipe before the report is written
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["canon", "--word", "211"]) == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, code, out", [(["--word", "211"], 0, "112\n"), (["--word", "x1"], 1, "")], ids=["ok", "bad-word"]
)
def test_module_entry_point_exits_with_mains_code(argv, code, out):
    import os
    import subprocess
    import sys

    import ckrep

    src = os.path.dirname(os.path.dirname(ckrep.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "ckrep.cli", "canon", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert (proc.returncode, proc.stdout) == (code, out)


def test_main_is_the_one_output_path():
    # the verbs return their reports; only main prints to stdout or reads --json
    import ast
    import inspect

    from ckrep import cli

    source = inspect.getsource(cli)
    module = ast.parse(source)
    functions = {node.name: node for node in ast.walk(module) if isinstance(node, ast.FunctionDef)}

    def stdout_prints(tree):
        return [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "print"
            and not any(
                kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr" for kw in node.keywords
            )
        ]

    def reads_json_flag(tree):
        return any(ast.unparse(node) == "args.json" for node in ast.walk(tree))

    verbs = [name for name in functions if name.startswith("_cmd_")]
    assert len(verbs) == 12
    assert len(stdout_prints(module)) == 1
    assert len(stdout_prints(functions["main"])) == 1
    assert [name for name in verbs if reads_json_flag(functions[name])] == []
    assert "stdout" not in source


class TestWideAlphabet:
    """Matrices with ten or more symbols: dumps of every word-labelled
    system load back, and word literals round-trip through the CLI."""

    @pytest.mark.parametrize(
        "argv, decomposed",
        [
            (["verify-relations", "--system", "cycle", "--word", "10,1", "--depth", "1"], "P(1,10)\n"),
            (["verify-relations", "--system", "cycle", "--word", "10,", "--depth", "1"], "P(10,)\n"),
            (["verify-relations", "--system", "chain", "--tail", "1|(2,10)", "--chain-len", "4",
              "--depth", "1"], None),
            (["verify-relations", "--system", "shift", "--word-len", "2"], None),
            (["decompose-shift", "--max-period", "1"], None),
        ],
        ids=["cycle", "one-letter-cycle", "chain", "shift", "decompose-shift"],
    )
    def test_dumps_load_back(self, capsys, full10_file, tmp_path, argv, decomposed):
        dump = tmp_path / "sys.txt"
        code, _ = run(capsys, argv[0], "--matrix", full10_file, *argv[1:], "--dump-bfs", str(dump))
        assert code == 0
        code, out = run(capsys, "decompose-bfs", "--matrix", full10_file, "--bfs", str(dump))
        assert code == 0
        if decomposed is not None:
            assert out == decomposed

    def test_one_letter_class_survives_expand(self, capsys, monkeypatch, tmp_path):
        import io

        # the min-successor map runs every symbol into 11, a delta row
        rows = [[0] * 11 for _ in range(11)]
        rows[0][10] = rows[9][9] = rows[10][10] = 1
        for i in range(1, 10):
            rows[i][i - 1] = 1
        path = tmp_path / "a11.txt"
        path.write_text("".join("".join(map(str, row)) + "\n" for row in rows))
        code, out = run(capsys, "decompose-standard", "--matrix", str(path), "--json")
        assert code == 0 and json.loads(out)["components"][0]["word"] == "11,"
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out = run(capsys, "expand")
        assert code == 0 and out == "P(11,)^(inf)\n"

    def test_gp_check_with_a_two_digit_symbol(self, capsys, full10_file):
        code, out = run(
            capsys, "gp-check", "--matrix", full10_file, "--word", "1,10", "--power", "3", "--depth", "1"
        )
        assert code == 0 and out.endswith("decomposition match: ok\n")


# The golden table: the exact stdout and exit code of every verb, as text
# and under --json, on small fixed inputs.  A JSON report is given as the
# object it prints in the one layout every verb uses (indent 2, sorted keys).
GOLDEN_FILES = {
    "A1": "11\n01\n",
    "A3": "011\n101\n110\n",
    "FULL2": "11\n11\n",
    # the cycle carrier of P(12) over A3 at depth 1
    "CYCLE_DUMP": "3 8\n1: 2->12, 32->~132, 312->~1312\n2: 12->2, 32->~232, 312->~2312\n"
    "3: 2->32, 12->312\n",
}


class _WrongPhase(Phase):
    """Twists j/(p+1) in place of j/p: they break the fixed point and the Gram matrix."""

    @staticmethod
    def exact(num, den=1):
        return Phase.exact(num, den + 1)


def _faulty_carrier(monkeypatch):
    # the cycle carrier of P(12) at depth 1 with its edge f_1(2) = 12 deleted
    faulty = GOLDEN_FILES["CYCLE_DUMP"].replace("1: 2->12, ", "1: ")
    monkeypatch.setattr(branching, "standard_bfs", lambda a, _: branching.load_bfs(faulty, a))


def _lost_class(monkeypatch):
    from ckrep import words

    enumerate_all = words.enumerate_cyclic_classes
    monkeypatch.setattr(
        words,
        "enumerate_cyclic_classes",
        lambda a, max_len: [e for e in enumerate_all(a, max_len) if e[0] != (1, 1, 2)],
    )


def _decomposition(level, matrix, components, **extra):
    return {
        "components": [
            {"kind": "finite", "multiplicity": mult, "phase": {"den": den, "num": num}, "word": w}
            for w, num, den, mult in components
        ],
        "level": level,
        "matrix": matrix,
        "unresolved": [],
        **extra,
    }


_A1_ROWS = [[1, 1], [0, 1]]
_PSPEC_INFINITE = "verdict: infinite\ntail classes: nonempty\nprimitive counts by length: "


def _pspec_record(counts, ok, finite=False, cycle_words=()):
    return {
        "class_count": len(cycle_words) if finite else None,
        "counts_by_length": counts,
        "cross_check_ok": ok,
        "cycle_words": list(cycle_words),
        "finite": finite,
        "tails_empty": finite,
    }


def _gp_record(ok):
    return {
        "decomposition_matches": True,
        "family_size": 4,
        "fixed_point_ok": ok,
        "ok": ok,
        "orthonormal_ok": ok,
        "p": 2,
        "word": "12",
    }


_GP_TEXT = "word: 12 power: 2\nfixed point: {0}\northonormal family of 4: {0}\ndecomposition match: ok\n"
_VERIFY_TEXT = "checked points: 4\ndomain checks: 12\ncompleteness checks: 4\n"
_VERIFY_COUNTS = {"checked_points": 4, "completeness_checks": 4, "domain_checks": 12}

GOLDEN = [
    pytest.param(
        ["classify-word", "--matrix", "A3", "--word", "2121"], None, 0,
        "word: 2121\nadmissible: yes\ncyclically admissible: yes\nperiodic: yes\n"
        "primitive root: 21\nmultiplicity: 2\nminimal: no\ncanonical rotation: 1212\n",
        {
            "admissible": True,
            "canonical_rotation": "1212",
            "cyclically_admissible": True,
            "minimal": False,
            "multiplicity": 2,
            "periodic": True,
            "primitive_root": "21",
            "word": "2121",
        },
        id="classify-word",
    ),
    pytest.param(["canon", "--word", "211"], None, 0, "112\n", {"word": "112"}, id="canon"),
    pytest.param(
        ["equiv", "--class", "P(12;1)", "--class", "P(21;1)"], None, 0,
        "equivalent\n", {"equivalent": True},
        id="equiv",
    ),
    pytest.param(
        ["decompose-standard", "--matrix", "A1"], None, 0,
        "P(1) (+) P(2)^(inf)\n",
        _decomposition("cyclic", _A1_ROWS, [("1", 0, 1, 1), ("2", 0, 1, "inf")]),
        id="decompose-standard",
    ),
    pytest.param(
        ["decompose-shift", "--matrix", "A1", "--max-period", "2"], None, 0,
        "P(1) (+) P(2)\nnon-eventually-periodic classes: none\n",
        _decomposition(
            "cyclic", _A1_ROWS, [("1", 0, 1, 1), ("2", 0, 1, 1)], tail_classes_present=False
        ),
        id="decompose-shift",
    ),
    pytest.param(
        ["decompose-bfs", "--matrix", "A3", "--bfs", "CYCLE_DUMP"], None, 0,
        "P(12)\n",
        _decomposition("cyclic", [[0, 1, 1], [1, 0, 1], [1, 1, 0]], [("12", 0, 1, 1)]),
        id="decompose-bfs",
    ),
    pytest.param(
        ["expand", "--class", "P(1212)"], None, 0,
        "P(12) (+) P(12;1/2)\n",
        _decomposition("irreducible", None, [("12", 0, 1, 1), ("12", 1, 2, 1)]),
        id="expand",
    ),
    pytest.param(
        ["verify-relations", "--matrix", "A3", "--system", "cycle", "--word", "12", "--depth", "1"],
        None, 0,
        _VERIFY_TEXT + "relations: ok\n",
        {**_VERIFY_COUNTS, "ok": True, "violations": []},
        id="verify-relations",
    ),
    pytest.param(
        ["verify-relations", "--matrix", "A3"], _faulty_carrier, 1,
        _VERIFY_TEXT
        + "violation: DomainMismatch symbols=(1,) points=('2',)\n"
        "violation: NotCovered symbols=() points=('12',)\n"
        "violation: DomainMismatch symbols=(2,) points=('12',)\n"
        "violation: DomainMismatch symbols=(3,) points=('12',)\n",
        {
            **_VERIFY_COUNTS,
            "ok": False,
            "violations": [
                {"kind": "DomainMismatch", "points": ["2"], "symbols": [1]},
                {"kind": "NotCovered", "points": ["12"], "symbols": []},
                {"kind": "DomainMismatch", "points": ["12"], "symbols": [2]},
                {"kind": "DomainMismatch", "points": ["12"], "symbols": [3]},
            ],
        },
        id="verify-relations-violations",
    ),
    pytest.param(
        ["state", "--matrix", "A3", "--class", "P(12)", "--left", "1", "--right", "1"], None, 0,
        "1\n", {"value": 1},
        id="state",
    ),
    pytest.param(
        ["pspec", "--matrix", "A1"], None, 0,
        "verdict: finite\nprimitive classes: 2\ncycle words: 1 2\ntail classes: empty\n"
        "primitive counts by length: 1:2 2:0 3:0 4:0 5:0 6:0\nenumeration cross-check: ok\n",
        _pspec_record([2, 0, 0, 0, 0, 0], True, finite=True, cycle_words=("1", "2")),
        id="pspec-finite",
    ),
    pytest.param(
        ["pspec", "--matrix", "FULL2", "--max-len", "4"], None, 0,
        _PSPEC_INFINITE + "1:2 2:1 3:2 4:3\nenumeration cross-check: ok\n",
        _pspec_record([2, 1, 2, 3], True),
        id="pspec-infinite",
    ),
    pytest.param(
        ["pspec", "--matrix", "FULL2", "--max-len", "4"], _lost_class, 1,
        _PSPEC_INFINITE + "1:2 2:1 3:1 4:3\nenumeration cross-check: FAILED\n",
        _pspec_record([2, 1, 1, 3], False),
        id="pspec-failed",
    ),
    pytest.param(
        ["gp-check", "--matrix", "A3", "--word", "12", "--power", "2"], None, 0,
        _GP_TEXT.format("ok"), _gp_record(True),
        id="gp-check",
    ),
    pytest.param(
        ["gp-check", "--matrix", "A3", "--word", "12", "--power", "2"],
        lambda monkeypatch: monkeypatch.setattr(reps, "Phase", _WrongPhase), 1,
        _GP_TEXT.format("FAILED"), _gp_record(False),
        id="gp-check-failed",
    ),
    pytest.param(
        ["twist", "--class", "P(12)", "--gauge", "1/4,1/4"], None, 0,
        "P(12;1/2)\n", {"class": "P(12;1/2)"},
        id="twist",
    ),
]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv, setup, code, text, record", GOLDEN)
def test_golden_output(capsys, monkeypatch, tmp_path, argv, setup, code, text, record, as_json):
    for name, content in GOLDEN_FILES.items():
        (tmp_path / name).write_text(content)
    if setup is not None:
        setup(monkeypatch)
    argv = [str(tmp_path / arg) if arg in GOLDEN_FILES else arg for arg in argv]
    expected = json.dumps(record, indent=2, sort_keys=True) + "\n" if as_json else text
    assert run(capsys, *argv, *(["--json"] if as_json else [])) == (code, expected)


# The parse errors and help texts, byte for byte: argparse writes them, so
# the width is pinned, and a help text ends the call with SystemExit.
_VERB_CHOICES = (
    "{classify-word,canon,equiv,decompose-standard,decompose-shift,decompose-bfs,expand,"
    "verify-relations,state,pspec,gp-check,twist}"
)
_TOP_HELP = f"""usage: ck [-h]
          {_VERB_CHOICES}
          ...

Permutative representation calculator

positional arguments:
  {_VERB_CHOICES}
    classify-word       admissibility and canonical form of a word
    canon               canonical rotation of a word
    equiv               equivalence of two class literals
    decompose-standard  decompose the standard representation
    decompose-shift     decompose the shift representation
    decompose-bfs       decompose a dumped system
    expand              irreducible-level expansion
    verify-relations    check the defining relations on a system
    state               evaluate the class state at s_left s_right^*
    pspec               finite/infinite verdict for the class spectrum
    gp-check            cyclic-vector check for a power class
    twist               gauge-twist a class literal

options:
  -h, --help            show this help message and exit
"""
_CANON_HELP = """usage: ck canon [-h] --word WORD [--json]

options:
  -h, --help   show this help message and exit
  --word WORD
  --json
"""
_DECOMPOSE_STANDARD_HELP = """usage: ck decompose-standard [-h] --matrix MATRIX [--json]
                             [--truncate TRUNCATE] [--dump-bfs DUMP_BFS]

options:
  -h, --help           show this help message and exit
  --matrix MATRIX      matrix file (0/1 rows)
  --json               emit the JSON report
  --truncate TRUNCATE
  --dump-bfs DUMP_BFS  also write the truncated system dump here
"""
_CHOICE_LIST = ", ".join(f"'{verb}'" for verb in _VERB_CHOICES[1:-1].split(","))


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        ([], 1, "", f"error: the following arguments are required: verb\n\n{_TOP_HELP}\n"),
        (["--help"], 0, _TOP_HELP, ""),
        (["-h", "canon"], 0, _TOP_HELP, ""),
        (["bogus"], 1, "",
         f"error: argument verb: invalid choice: 'bogus' (choose from {_CHOICE_LIST})\n\n{_TOP_HELP}\n"),
        (["canon", "-h"], 0, _CANON_HELP, ""),
        (["--json", "canon", "--word", "1"], 1, "",
         f"error: unrecognized arguments: --json\n\n{_TOP_HELP}\n"),
        (["canon", "--word", "1", "extra"], 1, "",
         f"error: unrecognized arguments: extra\n\n{_TOP_HELP}\n"),
        (["decompose-standard", "--matrix", "m", "--truncate", "x"], 1, "",
         f"error: argument --truncate: invalid int value: 'x'\n\n{_DECOMPOSE_STANDARD_HELP}\n"),
        (["canon", "--word"], 1, "", f"error: argument --word: expected one argument\n\n{_CANON_HELP}\n"),
    ],
    ids=["no-verb", "help", "help-before-verb", "unknown-verb", "verb-help", "option-before-verb",
         "extra-argument", "bad-int", "missing-value"],
)
def test_golden_usage(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["twist", "--cl", "P(12)", "--gau", "1/4,1/4"],
        ["twist", "--class", "P(12)", "--gauge", "1/4,1/4", "--js"],
        ["canon", "--wo", "211"],
        ["--he"],
    ],
    ids=["twist", "twist-json", "canon", "top-level-help"],
)
def test_abbreviated_options_are_refused(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
