"""End-to-end tests of the command-line interface.

main() is called in-process; stdout, stderr, and exit codes are asserted
together so each documented code keeps its meaning.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings

import pytest

import alexquandle.cli as cli
import alexquandle.quandle as quandle
from alexquandle.classify import classify_order, count_table
from alexquandle.cli import SpecParseError, _read_spec, main, parse_spec
from alexquandle.lambda_module import (
    LambdaModule,
    candidate_descriptors,
    descriptor_str,
    module_from_descriptor,
)
from alexquandle.quandle import QuandleTable, alexander_table, is_quandle_iso
from alexquandle.lambda_module import linear_module


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_text_and_json(capsys):
    code, out, err = run(capsys, ["build", "linear:3:2", "--format", "text"])
    assert (code, err) == (0, "")
    assert out == "0 2 1\n2 1 0\n1 0 2\n"
    code, out, _ = run(capsys, ["build", "linear:3:2", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"order": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}


def test_build_to_file(capsys, tmp_path):
    path = tmp_path / "t.json"
    code, out, _ = run(capsys, ["build", "linear:5:2", "-o", str(path)])
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert data["order"] == 5


def test_build_into_text_only_stdout():
    # io.StringIO has no binary buffer underneath, so the table goes out as text
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["build", "linear:3:2", "--format", "text"])
    assert (code, out.getvalue()) == (0, "0 2 1\n2 1 0\n1 0 2\n")


def test_unwritable_output_exits_3(capsys, tmp_path):
    path = tmp_path / "no-such-dir" / "t.json"
    for command in ("build", "dual"):
        code, out, err = run(capsys, [command, "linear:4:1", "-o", str(path)])
        assert (code, out) == (3, "")
        assert err.startswith(f"invalid input: cannot write {path}: ")


def test_axioms_pass_and_fail(capsys, tmp_path):
    code, out, _ = run(capsys, ["axioms", "poly:2:1,1,1"])
    assert (code, out) == (0, "pass\n")

    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n0 1\n")
    code, out, _ = run(capsys, ["axioms", f"table:@{bad}"])
    assert code == 1
    assert out == "axiom (i) fails at (0, 1, 0)\n"


def test_malformed_specs_exit_2(capsys):
    for spec in [
        "linear:8", "linear:8:x", "foo:3", "sum:linear:4:1", "pair:direct", "pair:3,9:x",
        # spec integers are ASCII decimal, -?[0-9]+, as descriptor_str prints them
        "linear:1_0:3", "linear: 8:3", "linear:8:3 ", "linear:+8:3", "linear:8:\u0663",
        "poly:2:1,,1", "poly:2:1,+1,1", "pair:3,9:2,0;1, 2", "linear:--8:3",
        # syntax is read in full before any value is checked, so an invalid
        # first component (gcd(4, 2) != 1, a non-unit constant) does not hide
        # a malformed later one
        "sum:linear:4:2+foo", "sum:poly:4:2,1+linear:2:1:3",
    ]:
        code, _, err = run(capsys, ["axioms", spec])
        assert code == 2, spec
        assert err.startswith("spec error:"), spec
        assert "position" in err


def test_invalid_values_exit_3(capsys, tmp_path):
    code, _, err = run(capsys, ["axioms", "linear:8:2"])  # gcd(8, 2) != 1
    assert code == 3
    assert err.startswith("invalid input:")
    code, _, err = run(capsys, ["build", "poly:4:2,1"])  # non-unit constant
    assert code == 3
    code, _, err = run(capsys, ["build", "pair:3,9:2,0"])  # one image, two factors
    assert code == 3
    assert err == "invalid input: need one generator image per invariant factor\n"
    oor = tmp_path / "oor.txt"
    oor.write_text("0 9\n1 0\n")
    code, _, err = run(capsys, ["build", f"table:@{oor}"])
    assert code == 3
    code, _, err = run(capsys, ["build", "table:@/no/such/file"])
    assert code == 3
    # text entries are ASCII decimal too; int() would read these as 0 0 / 1 1
    for entries in ("+0 0\n1 1\n", "0 0\n1 0_1\n", "0 0\n\u0661 1\n"):
        signed = tmp_path / "signed.txt"
        signed.write_text(entries, encoding="utf-8")
        code, out, err = run(capsys, ["axioms", f"table:@{signed}"])
        assert (code, out) == (3, ""), entries
        assert err.startswith("invalid input: expected an integer"), entries
    # non-integer entries once truncated to [[0, 0], [1, 1]], which passes
    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps({"order": 2, "table": [[0, 0.9], [1.7, 1]]}))
    code, out, err = run(capsys, ["axioms", f"table:@{fractional}"])
    assert (code, out) == (3, "")
    assert err.startswith("invalid input:")
    # an empty table once passed the axioms as JSON, and was refused as text
    for name, text, message in [
        ("blank.txt", " \n\n", "empty table"),
        ("empty.json", json.dumps({"order": 0, "table": []}), "empty table"),
        ("broken.json", "{not json", "bad JSON in"),
        ("keyless.json", json.dumps({"order": 1}), "bad table JSON"),
    ]:
        path = tmp_path / name
        path.write_text(text)
        for command in ("axioms", "orbits"):
            code, out, err = run(capsys, [command, f"table:@{path}"])
            assert (code, out) == (3, ""), (name, command)
            assert err.startswith(f"invalid input: {message}"), (name, command)


def test_build_of_a_table_that_breaks_an_axiom_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n0 1\n")
    code, out, err = run(capsys, ["build", f"table:@{bad}"])
    assert (code, out) == (3, "")
    assert err == "invalid input: table violates quandle axiom (i) at (0, 1, 0)\n"


def test_table_where_a_module_is_needed(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("0 2 1\n2 1 0\n1 0 2\n")
    code, out, err = run(capsys, ["build", f"sum:linear:2:1+table:@{path}"])
    assert (code, out) == (2, "")
    assert err.startswith("spec error: sum components must be modules")
    # refused by its prefix, before the file is read
    code, out, err = run(capsys, ["build", "sum:linear:2:1+table:@/no/such"])
    assert (code, out) == (2, "")
    assert err == "spec error: sum components must be modules (at position 15)\n"
    code, out, err = run(capsys, ["im1t", f"table:@{path}"])
    assert (code, out) == (3, "")
    assert err == "invalid input: im1t needs a module spec, not a table\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    # integer arguments are ASCII decimal, -?[0-9]+, as spec integers are;
    # int() would read each of these
    for argv, name, token in [
        (["classify", "1_2"], "order", "1_2"),
        (["table2", "--max", "1_2"], "--max", "1_2"),
        (["linear", "ncap", "\u0669", "\u0664"], "n", "\u0669"),
        (["im1t", "linear:8:3", "--power", "0_2"], "--power", "0_2"),
        (["linear", "iso", "+9", "4", "7"], "n", "+9"),
        (["linear", "dual", "5", "2", " 3"], "b", " 3"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert f"argument {name}: expected an integer, got {token!r}" in captured.err, argv
    # a negative order is an integer, refused as a value
    assert run(capsys, ["classify", "--", "-3"]) == (
        3, "", "invalid input: no quandles of order -3\n"
    )


def test_repeated_calls_share_no_parser_state(capsys):
    # the parser is built once per process; each call must still start
    # from the defaults, whatever the call before it set
    code, out, _ = run(capsys, ["iso", "linear:9:4", "linear:9:7", "--witness"])
    assert code == 0 and len(out.splitlines()) == 2
    assert run(capsys, ["iso", "linear:9:4", "linear:9:7"])[:2] == (0, "true\n")

    code, out, _ = run(capsys, ["build", "linear:3:2", "--format", "text"])
    assert out == "0 2 1\n2 1 0\n1 0 2\n"
    code, out, _ = run(capsys, ["build", "linear:3:2"])
    assert json.loads(out) == {"order": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}

    code, out, _ = run(capsys, ["classify", "5", "--connected-only"])
    assert (code, len(out.splitlines())) == (0, 4)
    code, out, _ = run(capsys, ["classify", "5"])
    assert (code, len(out.splitlines())) == (0, 5)

    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, ["linear", "ncap", "9", "4"]) == (0, "3\n", "")


def test_import_builds_no_parser():
    # count ArgumentParsers in a fresh interpreter: none on import, some on
    # the first call, no more on the second
    script = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import alexquandle.cli as cli\n"
        "counts = [len(built)]\n"
        "for _ in range(2):\n"
        "    cli.main(['linear', 'ncap', '9', '4'])\n"
        "    counts.append(len(built))\n"
        "print(*counts, file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    before, first, second = map(int, proc.stderr.split())
    assert before == 0
    assert first > 0
    assert second == first


def test_parse_spec_positions():
    with pytest.raises(SpecParseError) as exc:
        parse_spec("linear:8:x")
    assert exc.value.position == 9
    with pytest.raises(SpecParseError) as exc:
        parse_spec("poly:2:1,y,1")
    assert exc.value.position == 9
    with pytest.raises(SpecParseError) as exc:
        parse_spec("sum:linear:2:1+sum:linear:2:1+linear:2:1")
    assert exc.value.position == 15
    with pytest.raises(SpecParseError) as exc:
        parse_spec("pair:3,x:2,0;1,2")
    assert exc.value.position == 7
    with pytest.raises(SpecParseError) as exc:
        parse_spec("sum:linear:2:1+pair:3,9:2,0;1,y")
    assert exc.value.position == 30
    for spec, position in [
        ("linear:1_0:3", 7),
        ("linear:8:\u0663", 9),
        ("poly:2:1,+1,1", 9),
        ("poly:2:1,,1", 9),
        ("pair:3,9:2,0;1, 2", 15),
    ]:
        with pytest.raises(SpecParseError) as exc:
            parse_spec(spec)
        assert exc.value.position == position, spec


def test_classify_representatives_parse_back():
    # classify names some classes by inline pair specs (four at order 27)
    # and the trivial quandle by the empty sum "0", which the CLI once
    # refused as "pair spec takes a file" and as no spec at all
    orders = (1, 16, 27, 48)
    reps = [c.representative for n in orders for c in classify_order(n).classes]
    assert sum(r[0] == "pair" for r in reps) == 4
    assert ("sum", ()) in reps
    for rep in reps:
        assert _read_spec(descriptor_str(rep), 0) == rep
        assert parse_spec(descriptor_str(rep)) == module_from_descriptor(rep)


def test_spec_reader_inverts_descriptor_str():
    # the reader returns the very descriptor printed, building no module
    for n in range(1, 65):
        for desc in candidate_descriptors(n):
            assert _read_spec(descriptor_str(desc), 0) == desc


def test_iso_true_false_and_witness(capsys):
    code, out, _ = run(capsys, ["iso", "linear:9:4", "linear:9:7"])
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, ["iso", "linear:8:1", "linear:8:3"])
    assert (code, out) == (1, "false\n")

    code, out, _ = run(
        capsys, ["iso", "linear:9:4", "linear:9:7", "--witness", "--method", "both"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "true"
    perm = tuple(int(v) for v in lines[1].split())
    t1 = alexander_table(linear_module(9, 4))
    t2 = alexander_table(linear_module(9, 7))
    assert is_quandle_iso(t1, t2, perm)


def test_iso_theorem1_witness_searches_once(capsys, monkeypatch):
    calls, search = [], quandle.lambda_iso
    monkeypatch.setattr(quandle, "lambda_iso", lambda m, n: calls.append(1) or search(m, n))
    code, out, _ = run(capsys, ["iso", "linear:9:4", "linear:9:7", "--witness"])
    assert code == 0 and out.startswith("true\n")
    assert len(calls) == 1


def test_iso_brute_accepts_tables(capsys, tmp_path):
    path = tmp_path / "t.txt"
    code, out, _ = run(capsys, ["build", "linear:9:4", "--format", "text", "-o", str(path)])
    assert code == 0
    code, out, _ = run(
        capsys, ["iso", f"table:@{path}", "linear:9:7", "--method", "brute"]
    )
    assert (code, out) == (0, "true\n")
    code, _, err = run(capsys, ["iso", f"table:@{path}", "linear:9:7"])
    assert code == 3  # theorem1 needs module specs
    assert "module specs" in err


def test_iso_decider_disagreement_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brute_iso", lambda a, b: None)
    code, out, err = run(
        capsys, ["iso", "linear:9:4", "linear:9:7", "--method", "both"]
    )
    assert code == 4
    assert "disagree" in err


def test_internal_failure_exits_4_not_1(capsys, monkeypatch):
    def deep(a, b):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "brute_iso", deep)
    code, out, err = run(
        capsys, ["iso", "linear:9:4", "linear:9:7", "--method", "brute"]
    )
    assert (code, out) == (4, "")
    assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"


def test_dual_output_and_involution_check(capsys, monkeypatch):
    code, out, _ = run(capsys, ["dual", "linear:5:2", "--format", "text"])
    assert code == 0
    dual_rows = tuple(
        tuple(int(v) for v in line.split()) for line in out.splitlines()
    )
    # t inverts: dual of multiplication by 2 is multiplication by 3 mod 5
    assert QuandleTable(dual_rows) == alexander_table(linear_module(5, 3))

    monkeypatch.setattr(cli, "dual", lambda t: alexander_table(linear_module(5, 2)))
    code, _, err = run(capsys, ["dual", "linear:5:3"])
    assert code == 4
    assert "involution" in err


def test_orbits_output(capsys):
    code, out, _ = run(capsys, ["orbits", "linear:9:4"])
    assert code == 0
    assert out == "0 3 6\n1 4 7\n2 5 8\nconnected: false\n"
    code, out, _ = run(capsys, ["orbits", "linear:9:4", "--format", "json"])
    assert json.loads(out) == {
        "orbits": [[0, 3, 6], [1, 4, 7], [2, 5, 8]],
        "connected": False,
    }


def test_im1t_identify(capsys):
    code, out, _ = run(capsys, ["im1t", "linear:8:5", "--identify"])
    assert code == 0
    assert out == "members: 0 4\ngroup: 2\nidentified: linear:2:1\n"
    code, out, _ = run(capsys, ["im1t", "linear:8:5", "--identify", "--format", "json"])
    assert json.loads(out) == {
        "members": [0, 4],
        "invariant_factors": [2],
        "identified": "linear:2:1",
    }
    # the trivial image renders as 0
    code, out, _ = run(capsys, ["im1t", "sum:linear:2:1+linear:2:1", "--identify"])
    assert out == "members: 0\ngroup: 1\nidentified: 0\n"
    code, out, _ = run(capsys, ["im1t", "linear:8:5", "--power", "2"])
    assert code == 0
    assert out.splitlines()[0] == "members: 0"


# (1-t)^2 M as members of M, its group and its name, for a linear, a poly
# and a sum module
IM1T_POWER_TWO = {
    "linear:27:4": ("0 9 18", "3", "[0, 9, 18]", "[3]", "linear:3:1"),
    "poly:3:2,0,1": ("0 5 7", "3", "[0, 5, 7]", "[3]", "linear:3:2"),
    "sum:linear:2:1+linear:8:3": ("0 8", "2", "[0, 8]", "[2]", "linear:2:1"),
}


@pytest.mark.parametrize("spec", IM1T_POWER_TWO)
def test_im1t_power_two_text_and_json(capsys, spec):
    members, group, json_members, json_group, name = IM1T_POWER_TWO[spec]
    argv = ["im1t", spec, "--power", "2"]
    text = f"members: {members}\ngroup: {group}\n"
    assert run(capsys, argv) == (0, text, "")
    assert run(capsys, [*argv, "--identify"]) == (0, f"{text}identified: {name}\n", "")
    info = f'{{"members": {json_members}, "invariant_factors": {json_group}'
    assert run(capsys, [*argv, "--format", "json"]) == (0, info + "}\n", "")
    identified = f'{info}, "identified": "{name}"}}\n'
    assert run(capsys, [*argv, "--identify", "--format", "json"]) == (0, identified, "")


def test_im1t_rejects_power_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["im1t", "linear:8:5", "--power", "3"])
    assert exc.value.code == 2
    assert "invalid choice: 3" in capsys.readouterr().err


def test_pair_spec_from_file(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps(
            {"invariant_factors": [2, 4], "t_generator_images": [[1, 0], [1, 1]]}
        )
    )
    code, out, _ = run(
        capsys, ["iso", f"pair:@{path}", "linear:8:5", "--method", "both"]
    )
    assert (code, out) == (0, "true\n")
    path.write_text("{not json")
    code, _, err = run(capsys, ["axioms", f"pair:@{path}"])
    assert code == 3
    assert "bad JSON" in err
    # each image must be a list of coordinates; a bare int once escaped as
    # an uncaught TypeError, exit code 1, which reads as "not isomorphic"
    path.write_text(json.dumps({"invariant_factors": [4], "t_generator_images": [3]}))
    code, _, err = run(capsys, ["iso", f"pair:@{path}", "linear:4:3"])
    assert code == 3
    assert "bad module JSON" in err
    path.write_text(
        json.dumps({"invariant_factors": [4], "t_generator_images": [[1, 2]]})
    )
    code, _, err = run(capsys, ["iso", f"pair:@{path}", "linear:4:3"])
    assert (code, err) == (3, "invalid input: expected 1 coordinates, got 2\n")


def test_pair_file_is_read_after_the_whole_spec(capsys):
    # a malformed later sum component is a spec error, whatever the file
    code, out, err = run(capsys, ["iso", "sum:pair:@/no/such+foo", "linear:4:1"])
    assert (code, out) == (2, "")
    assert err.startswith("spec error: spec must be 0 or start with")
    assert err.endswith("(at position 19)\n")
    # a well-formed spec then reads the file, and an unreadable one is invalid input
    code, out, err = run(capsys, ["iso", "sum:pair:@/no/such+linear:4:1", "linear:4:1"])
    assert (code, out) == (3, "")
    assert err.startswith("invalid input: cannot read /no/such")


def test_linear_subcommands(capsys):
    assert run(capsys, ["linear", "iso", "9", "4", "7"])[0:2] == (0, "true\n")
    assert run(capsys, ["linear", "iso", "9", "4", "2"])[0:2] == (1, "false\n")
    assert run(capsys, ["linear", "connected", "5", "2"])[0:2] == (0, "true\n")
    assert run(capsys, ["linear", "connected", "12", "1"])[0:2] == (1, "false\n")
    assert run(capsys, ["linear", "dual", "5", "2", "3"])[0:2] == (0, "true\n")
    assert run(capsys, ["linear", "selfdual", "5", "4"])[0:2] == (0, "true\n")
    assert run(capsys, ["linear", "ncap", "9", "4"])[0:2] == (0, "3\n")
    assert run(capsys, ["linear", "ncap", "9", "3"])[0] == 3


def test_classify_formats(capsys):
    code, out, _ = run(capsys, ["classify", "4", "--format", "csv"])
    assert code == 0
    assert out == (
        "representative,connected,class_size_in_enumeration\n"
        "linear:4:1,false,2\n"
        "linear:4:3,false,4\n"
        '"poly:2:1,1,1",true,2\n'
    )
    code, out, _ = run(capsys, ["classify", "4", "--connected-only"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order 4: 3 distinct, 1 connected"
    assert len(lines) == 2 and "poly:2:1,1,1" in lines[1]
    code, out, _ = run(capsys, ["classify", "4", "--format", "json"])
    assert json.loads(out)["distinct"] == 3


def test_classify_connected_only_json_keeps_header_counts(capsys):
    _, full, _ = run(capsys, ["classify", "8", "--format", "json"])
    code, out, err = run(capsys, ["classify", "8", "--connected-only", "--format", "json"])
    assert (code, err) == (0, "")
    full, data = json.loads(full), json.loads(out)
    assert data["classes"] == [c for c in full["classes"] if c["connected"]]
    assert 0 < len(data["classes"]) == data["connected"] < data["distinct"]
    del full["classes"], data["classes"]
    assert data == full


def test_order_guard_env(capsys, monkeypatch):
    code, _, err = run(capsys, ["classify", "16"])
    assert code == 3
    assert "QUANDLE_MAX_ORDER" in err
    monkeypatch.setenv("QUANDLE_MAX_ORDER", "5")
    code, _, err = run(capsys, ["classify", "6"])
    assert code == 3
    monkeypatch.setenv("QUANDLE_MAX_ORDER", "18")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, ["classify", "18"])
    assert code == 0
    assert out.splitlines()[0] == "order 18: 11 distinct, 0 connected"
    for raw in ("zap", " 1_6", "+16"):
        monkeypatch.setenv("QUANDLE_MAX_ORDER", raw)
        code, out, err = run(capsys, ["table2", "--max", "16"])
        assert (code, out) == (3, ""), raw
        assert err == f"invalid input: QUANDLE_MAX_ORDER must be an integer, got {raw!r}\n"


def test_admitted_large_order_prints_no_warning(capsys, monkeypatch):
    # the guard admits these orders; the library's default-bound warning
    # must not reach stderr or the warnings machinery
    monkeypatch.setenv("QUANDLE_MAX_ORDER", "20")
    for argv in (["classify", "16"], ["table2", "--max", "16"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, argv)
        assert code == 0
        assert out
        assert err == ""
        assert caught == []


def test_table2_exact(capsys):
    code, out, _ = run(capsys, ["table2", "--max", "6", "--format", "csv"])
    assert code == 0
    assert out == "n,distinct,connected\n2,1,0\n3,2,1\n4,3,1\n5,4,3\n6,2,0\n"


def test_table2_json_equals_count_table(capsys):
    code, out, err = run(capsys, ["table2", "--max", "6", "--format", "json"])
    assert (code, err) == (0, "")
    rows = [{"order": n, "distinct": d, "connected": c} for n, d, c in count_table(6)]
    assert json.loads(out) == rows


def test_table1_row_count(capsys):
    code, out, _ = run(capsys, ["table1"])
    assert code == 0
    assert len(out.splitlines()) == 17
    code, out, _ = run(capsys, ["table1", "--format", "json"])
    rows = json.loads(out)
    assert len(rows) == 17
    assert rows[0] == {
        "group": [2, 2],
        "module": "sum:linear:2:1+linear:2:1",
        "image": "0",
    }


def test_parse_spec_returns_module_or_table(tmp_path):
    assert isinstance(parse_spec("linear:4:3"), LambdaModule)
    path = tmp_path / "t.txt"
    path.write_text("0 1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_spec(f"table:@{path}")  # 1 x 2 is not square


def _transcript_calls():
    """Every argv the pinned transcript runs: each subcommand with each
    format and flag, over every kind of spec, order and predicate."""
    specs = [
        "linear:9:4", "linear:5:2", "poly:2:1,1,1", "sum:linear:2:1+linear:3:2",
        "0", "pair:3,9:2,0;1,2", "pair:@p.json", "table:@t.json", "table:@t.txt",
        "table:@bad_i.txt", "table:@bad_ii.txt", "linear:6:3", "linear:1_0:3",
    ]
    calls = []
    for spec in specs:
        calls += [["build", spec], ["axioms", spec], ["dual", spec]]
        for cmd in ("build", "dual"):
            calls += [[cmd, spec, "--format", f] for f in ("text", "json")]
        calls += [["orbits", spec]] + [["orbits", spec, "--format", f] for f in ("text", "json")]
        for flags in ([], ["--identify"], ["--power", "2"], ["--power", "2", "--identify"]):
            calls += [["im1t", spec, *flags, "--format", f] for f in ("text", "json")]
    calls += [
        ["build", "linear:5:2", "-o", "out.json"],
        ["dual", "linear:5:2", "-o", "out.txt", "--format", "text"],
        ["build", "linear:5:2", "-o", "no/such/dir"],
        ["im1t", "linear:8:5"],
    ]
    pairs = [
        ("linear:9:4", "linear:9:7"), ("linear:9:4", "linear:9:2"),
        ("pair:@p.json", "linear:8:5"), ("poly:3:1,1,1", "linear:9:4"),
        ("table:@t.json", "table:@t.txt"), ("0", "table:@t.json"),
        ("linear:6:3", "linear:9:4"), ("linear:9:4", "poly:3:1,,1"),
    ]
    for left, right in pairs:
        for method in ([], ["--method", "theorem1"], ["--method", "brute"], ["--method", "both"]):
            calls += [["iso", left, right, *method], ["iso", left, right, *method, "--witness"]]
    for order in ("0", "1", "4", "8", "12", "15", "-3", "16"):
        for flags in ([], ["--connected-only"]):
            calls += [["classify", *flags, "--", order]]
            for f in ("text", "json", "csv"):
                calls += [["classify", *flags, "--format", f, "--", order]]
    calls += [["table1"]] + [["table1", "--format", f] for f in ("text", "json")]
    calls += [["table2"]]
    for top in ("1", "2", "9", "15", "16"):
        calls += [["table2", "--max", top, "--format", f] for f in ("text", "json", "csv")]
    for args in ("9 4 7", "9 4 2", "8 2 3", "5 2 3", "7 3 5"):
        calls += [["linear", "iso", *args.split()], ["linear", "dual", *args.split()]]
    for args in ("5 2", "12 1", "6 3", "9 4", "5 4", "7 3"):
        calls += [["linear", name, *args.split()] for name in ("connected", "selfdual", "ncap")]
    return calls


def test_cli_transcript_is_pinned(capsys, monkeypatch, tmp_path):
    # every report, message and exit code of the CLI, byte for byte; run
    # from tmp_path so that no absolute path enters a message
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QUANDLE_MAX_ORDER", raising=False)
    (tmp_path / "p.json").write_text(
        '{"invariant_factors": [2, 4], "t_generator_images": [[1, 0], [1, 1]]}'
    )
    (tmp_path / "t.json").write_text('{"order": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}')
    (tmp_path / "t.txt").write_text("0 2 1\n2 1 0\n1 0 2\n")
    (tmp_path / "bad_i.txt").write_text("1 0\n1 0\n")
    (tmp_path / "bad_ii.txt").write_text("0 1\n0 1\n")
    transcript = []
    for argv in _transcript_calls():
        code = main(argv)
        transcript.append((argv, code, *capsys.readouterr()))
    transcript.append([(tmp_path / name).read_text() for name in ("out.json", "out.txt")])
    monkeypatch.setenv("QUANDLE_MAX_ORDER", "16")
    argv = ["classify", "16", "--format", "csv"]
    code = main(argv)
    transcript.append((argv, code, *capsys.readouterr()))
    assert transcript[-1][2].count('"') == 2 * 17
    digest = hashlib.md5(repr(transcript).encode()).hexdigest()
    assert (len(transcript), digest) == (415, "157cc9fd9240f6e89f30f8c6c9036cd5")


def test_parser_interface_is_pinned():
    # every action of the top parser, each subcommand and each linear
    # predicate, in order; --help text differs between Python versions,
    # these fields do not
    def describe(parser, name):
        for a in parser._actions:
            choices = None if a.choices is None else list(a.choices)
            yield name, (
                a.option_strings, a.dest, a.nargs, choices, a.default, a.required,
                a.help, a.metavar, getattr(a.type, "__name__", None),
            )
            if isinstance(a.choices, dict):
                yield name, [(c.dest, c.help) for c in a._choices_actions]
                for sub, p in a.choices.items():
                    yield from describe(p, f"{name} {sub}")

    interface = list(describe(cli._build_parser(), "alexquandle"))
    actions = sum(isinstance(fields, tuple) for _, fields in interface)
    digest = hashlib.md5(repr(interface).encode()).hexdigest()
    assert (actions, digest) == (53, "333bcc0e4a319e5b03fb48c9113e2467")


def run_into_closing_reader(argv, unbuffered, read):
    """Run the CLI into a one-page pipe whose reader stops after read(reader);
    return the exit code, stderr and what was read."""
    import fcntl

    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, QUANDLE_MAX_ORDER="432", PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "alexquandle", *argv],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env=env,
    )
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        head = read(reader)
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), err, head


needs_pipe_size = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="needs F_SETPIPE_SZ"
)


@needs_pipe_size
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_141_silently(unbuffered):
    # a reader that stops after one line, as `| head -n 1` does; the pipe
    # is shrunk to one page so the 71 kB report cannot fit in it, and the
    # CLI must see the close whether it prints line by line or in blocks
    code, err, first = run_into_closing_reader(
        ["classify", "432"], unbuffered, lambda reader: reader.readline()
    )
    assert code == 141
    assert err == b""
    assert first == b"order 432: 1035 distinct, 270 connected\n"


@needs_pipe_size
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_mid_table_exits_141_silently(unbuffered):
    # a 160 kB table goes out in one write; an unbuffered stdout is a raw
    # file that may take only part of it, and the rest must not be dropped
    code, err, head = run_into_closing_reader(
        ["build", "linear:200:7", "--format", "text"], unbuffered, lambda r: r.read(20)
    )
    assert code == 141
    assert err == b""
    assert head == b"0 194 188 182 176 17"
