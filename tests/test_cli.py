import json

import pytest

from conftest import A1_ROWS, A3_ROWS
from ckrep import branching, reps
from ckrep.cli import main, render_report
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

    def test_verify_relations(self, capsys, a3_file):
        code, out = run(capsys, "verify-relations", "--matrix", a3_file, "--truncate", "60")
        assert code == 0 and "relations: ok" in out

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

    def test_gp_check(self, capsys, a3_file):
        code, out = run(capsys, "gp-check", "--matrix", a3_file, "--word", "12", "--power", "2")
        assert code == 0 and "fixed point: ok" in out

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

        monkeypatch.setattr("ckrep.cli.reps.decompose_standard", boom)
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
