import importlib.resources
import io
import json
import os

import pytest

from manipsem import cli
from manipsem.events import dump_trace
from manipsem.pipeline import analyze_trace, describe_document, describe_hand
from manipsem.synth import ScenarioSpec, generate_synthetic_trace
from conftest import box_cloud


@pytest.fixture(scope="module")
def screw_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "screw.jsonl"
    gen = generate_synthetic_trace(ScenarioSpec("Screw", seed=7))
    dump_trace(gen.trace, str(path))
    return str(path)


@pytest.fixture(scope="module")
def nested_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "nested.jsonl"
    inner = box_cloud((0.3, 0.3, 0.3), (0.7, 0.7, 0.7)).tolist()
    outer = box_cloud((0, 0, 0), (1, 1, 1), center=False).tolist()
    lines = []
    for k in range(3):
        lines.append(json.dumps({"t": k / 30.0, "objects": [
            {"id": "inner", "label": "ball", "role": "object", "points": inner},
            {"id": "outer", "label": "crate", "role": "object", "points": outer},
        ]}))
    path.write_text("\n".join(lines), encoding="utf-8")
    return str(path)


class TestRelationsCommand:
    def test_nested_rows_contain_wi_co(self, nested_trace, capsys):
        assert cli.main(["relations", nested_trace]) == 0
        out = capsys.readouterr().out
        assert "Wi" in out and "Co" in out

    def test_records_format(self, nested_trace, capsys):
        assert cli.main(["relations", nested_trace, "--format", "records"]) == 0
        rows = [json.loads(s) for s in capsys.readouterr().out.strip().splitlines()]
        assert {"frame", "a", "b", "ssr_ab", "ssr_ba", "dsr"} <= set(rows[0])

    def test_empty_objects_trace(self, tmp_path, capsys):
        p = tmp_path / "empty.jsonl"
        p.write_text(json.dumps({"t": 0.0, "objects": []}) + "\n")
        assert cli.main(["relations", str(p)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("frame\t")

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.jsonl"
        p.write_text("definitely not json\n")
        assert cli.main(["relations", str(p)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_schema_error_exit_3(self, tmp_path):
        p = tmp_path / "schema.jsonl"
        rec = {"id": "a", "label": "a", "role": "paw", "points": [[0, 0, 0]] * 4}
        p.write_text(json.dumps({"t": 0.0, "objects": [rec]}) + "\n")
        assert cli.main(["relations", str(p)]) == 3


class TestDescribeCommand:
    def test_three_tier_document(self, screw_trace, capsys):
        assert cli.main(["describe", screw_trace, "--hand", "both"]) == 0
        out = capsys.readouterr().out
        assert "Detailed sentences:" in out
        assert "Multiple sentences:" in out
        assert "One sentence:" in out
        assert ("The left hand performs screwing inside of a hard disk on the "
                "table by a screwdriver.") in out
        assert "For the right hand:" in out and "Idle." in out

    def test_level_selection(self, screw_trace, capsys):
        assert cli.main(["describe", screw_trace, "--level", "1", "--hand", "left"]) == 0
        out = capsys.readouterr().out
        assert "One sentence:" not in out

    def test_unavailable_level_exit_4(self, screw_trace, capsys):
        assert cli.main(["describe", screw_trace, "--level", "99"]) == 4
        assert "available" in capsys.readouterr().err

    def test_level_zero_exit_4(self, screw_trace, capsys):
        assert cli.main(["describe", screw_trace, "--level", "0"]) == 4
        captured = capsys.readouterr()
        assert "level 0 unavailable" in captured.err and not captured.out

    def test_unavailable_level_records_print_nothing(self, screw_trace, tmp_path, capsys):
        """In a right-handed screwing, the absent left hand is idle at level 1
        whatever was asked, but the right hand lacks level 4: no record of
        either hand is printed."""
        with open(screw_trace, encoding="utf-8") as fh:
            text = fh.read()
        path = tmp_path / "right.jsonl"
        path.write_text(text.replace('"hand_left"', '"hand_right"'), encoding="utf-8")
        argv = ["describe", str(path), "--format", "records"]
        assert cli.main(argv + ["--level", "1"]) == 0
        assert {json.loads(line)["hand"] for line in capsys.readouterr().out.splitlines()} == {
            "left", "right"}
        assert cli.main(argv + ["--level", "4"]) == 4
        captured = capsys.readouterr()
        assert "level 4 unavailable" in captured.err and not captured.out

    def test_huge_integer_coordinate_exit_2(self, screw_trace, tmp_path, capsys):
        """An integer past the interpreter's digit limit is a parse error of
        its line, not a traceback."""
        with open(screw_trace, encoding="utf-8") as fh:
            first, rest = fh.read().split("\n", 1)
        head, tail = first.split('"points": [[', 1)
        huge = head + '"points": [[' + "9" * 5000 + tail[tail.index(","):]
        path = tmp_path / "huge.jsonl"
        path.write_text(huge + "\n" + rest, encoding="utf-8")
        assert cli.main(["describe", str(path)]) == 2
        err = capsys.readouterr().err
        assert "trace parse error: line 1: bad JSON: integer exceeds the limit of" in err

    def test_deeply_nested_line_exit_2(self, screw_trace, tmp_path, capsys):
        """A line nested past the interpreter's recursion limit is a parse
        error of its line, not a traceback."""
        with open(screw_trace, encoding="utf-8") as fh:
            first = fh.readline()
        path = tmp_path / "deep.jsonl"
        path.write_text(first + '{"t": 9, "objects": ' + "[" * 100000 + "\n", encoding="utf-8")
        assert cli.main(["describe", str(path)]) == 2
        assert "trace parse error: line 2: bad JSON: nested too deeply" in capsys.readouterr().err

    def test_records_format(self, screw_trace, capsys):
        assert cli.main(["describe", screw_trace, "--format", "records",
                         "--hand", "left"]) == 0
        rows = [json.loads(s) for s in capsys.readouterr().out.strip().splitlines()]
        assert all({"hand", "level", "frames", "sentence"} <= set(r) for r in rows)


class TestParseCommand:
    def test_tree_output(self, tmp_path, capsys):
        p = tmp_path / "tokens.txt"
        p.write_text("Hand_L T O1 To Ground\n")
        assert cli.main(["parse", str(p)]) == 0
        out = capsys.readouterr().out
        for sym in ("S", "Sp", "Sub", "Ap", "SRp"):
            assert sym in out.split()

    def test_noparse_exit_6(self, tmp_path, capsys):
        p = tmp_path / "garbage.txt"
        p.write_text("To T nothing\n")
        assert cli.main(["parse", str(p)]) == 6
        assert "offset 0" in capsys.readouterr().err


class TestUnreadableInput:
    """A missing, unreadable or undecodable input file exits 2 with a
    message naming it, never with a raw traceback."""

    @pytest.mark.parametrize("command", ["relations", "describe"])
    def test_missing_trace_exit_2(self, command, tmp_path, capsys):
        path = str(tmp_path / "nope.jsonl")
        assert cli.main([command, path]) == 2
        err = capsys.readouterr().err
        assert f"trace parse error: cannot read {path}: No such file or directory" in err

    @pytest.mark.parametrize("command", ["relations", "describe"])
    def test_directory_as_trace_exit_2(self, command, tmp_path, capsys):
        assert cli.main([command, str(tmp_path)]) == 2
        assert f"trace parse error: cannot read {tmp_path}: " in capsys.readouterr().err

    def test_missing_token_file_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "missing.txt")
        assert cli.main(["parse", path]) == 2
        assert f"cannot read {path}: No such file or directory" in capsys.readouterr().err

    def test_non_utf8_token_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "tokens.txt"
        path.write_bytes(b"\xff\xfeH\x00a\x00")
        assert cli.main(["parse", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err


class TestBenchCommand:
    def test_empty_dir_exit_5(self, tmp_path, capsys):
        """A corpus path that is empty, missing or not a directory, or a
        corpus without a labeled relation, exits 5 and writes no report."""
        notes = tmp_path / "notes.txt"
        notes.write_text("not a corpus\n")
        unlabeled = tmp_path / "unlabeled"
        assert cli.main(["corpus", str(unlabeled), "--count", "2"]) == 0
        for gt in unlabeled.glob("*.gt.json"):
            gt.unlink()
        empty = tmp_path / "empty"
        empty.mkdir()
        missing = tmp_path / "missing"
        for path, err in [(empty, "corpus directory holds no traces\n"),
                          (missing, f"corpus directory not found: {missing}\n"),
                          (notes, f"corpus directory not found: {notes}\n"),
                          (unlabeled, "corpus holds no labeled relations\n")]:
            capsys.readouterr()
            assert cli.main(["bench", str(path)]) == 5
            assert capsys.readouterr().err == err
        assert not list(unlabeled.glob("bench_report.*"))

    def test_out_dir_on_a_regular_file_is_a_usage_error(self, tmp_path, capsys,
                                                        monkeypatch):
        """A report directory that is a file is refused before scoring."""
        assert cli.main(["corpus", str(tmp_path / "c"), "--count", "2"]) == 0
        notes = tmp_path / "notes.txt"
        notes.write_text("keep\n")
        capsys.readouterr()
        monkeypatch.setattr(cli.bench_mod, "compare_models",
                            lambda *a, **k: pytest.fail("the corpus was scored"))
        assert cli.main(["bench", str(tmp_path / "c"), "--out-dir", str(notes)]) == 2
        assert capsys.readouterr() == ("", f"not a directory: {notes}\n")
        assert notes.read_text() == "keep\n"

    def test_small_corpus_report(self, tmp_path, capsys):
        assert cli.main(["corpus", str(tmp_path), "--count", "18", "--seed", "3"]) == 0
        capsys.readouterr()
        out_dir = str(tmp_path / "reports")
        assert cli.main(["bench", str(tmp_path), "--out-dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert out.startswith("metric\thull\taabb")
        assert os.path.exists(os.path.join(out_dir, "bench_report.tsv"))
        assert os.path.exists(os.path.join(out_dir, "bench_report.records"))

    @pytest.mark.parametrize("content, code, message", [
        (b'{"relations": [', 2, "line 1: bad JSON"),
        (b'\xff{"relations": []}', 2, "not UTF-8"),
        (b'{"relations": [{"frame": 0, "b": "x", "label": "To"}]}', 3,
         "relation 0 needs fields frame, a, b and label"),
        (b'{"relations": [{"frame": 0, "a": "x", "b": "y", "label": "Nope"}]}', 3,
         "relation 0: unknown label 'Nope'"),
        (b'{"relations": [{"frame": "0", "a": "x", "b": "y", "label": "To"}]}', 3,
         "relation 0: frame must be a non-negative integer"),
        (b'{"relations": [{"frame": ' + b"9" * 5000 + b', "a": "x", "b": "y", "label": "To"}]}',
         2, "line 1: bad JSON: integer exceeds the limit of"),
        (b'{"relations": [\n{"frame": ' + b"9" * 5000 + b', "a": "x", "b": "y", "label": "To"}]}',
         2, ".gt.json: bad JSON: integer exceeds the limit of"),
        (b"[" * 100000, 2, "line 1: bad JSON: nested too deeply"),
    ], ids=["bad_json", "not_utf8", "missing_field", "unknown_label", "string_frame",
            "huge_frame", "huge_frame_on_line_2", "deep_nesting"])
    def test_malformed_ground_truth_names_its_file(self, tmp_path, capsys,
                                                   content, code, message):
        assert cli.main(["corpus", str(tmp_path), "--count", "2"]) == 0
        gt_path = tmp_path / "scene_0001.gt.json"
        gt_path.write_bytes(content)
        capsys.readouterr()
        assert cli.main(["bench", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert f"{gt_path}: " in err and message in err


class TestCorpusCommand:
    def test_directory_holding_traces_is_refused(self, tmp_path, capsys):
        """bench scores every trace in a directory, so a second corpus
        written over a first would be scored mixed with it."""
        corp = tmp_path / "st"
        assert cli.main(["corpus", str(corp), "--count", "9", "--seed", "1"]) == 0
        before = {p.name: p.read_bytes() for p in corp.iterdir()}
        capsys.readouterr()
        assert cli.main(["corpus", str(corp), "--count", "3", "--seed", "2"]) == 2
        assert capsys.readouterr().err == f"corpus directory already holds traces: {corp}\n"
        assert {p.name: p.read_bytes() for p in corp.iterdir()} == before

    def test_bench_reports_alone_do_not_block(self, tmp_path, capsys):
        reports = tmp_path / "reports"
        assert cli.main(["corpus", str(tmp_path / "a"), "--count", "9", "--seed", "1"]) == 0
        assert cli.main(["bench", str(tmp_path / "a"), "--out-dir", str(reports)]) == 0
        assert cli.main(["corpus", str(reports), "--count", "3", "--seed", "2"]) == 0
        assert len(list(reports.glob("*.jsonl"))) == 3

    @pytest.mark.parametrize("count", ["0", "-4"])
    def test_count_below_one_is_a_usage_error(self, tmp_path, capsys, count):
        corp = tmp_path / "neg"
        assert cli.main(["corpus", str(corp), "--count", count]) == 2
        assert capsys.readouterr().err == f"corpus: --count must be at least 1, got {count}\n"
        assert not corp.exists()

    def test_regular_file_is_refused_before_building(self, tmp_path, capsys, monkeypatch):
        afile = tmp_path / "afile"
        afile.write_text("x\n")
        monkeypatch.setattr(cli.synth, "make_corpus",
                            lambda *a, **k: pytest.fail("scenes were built"))
        assert cli.main(["corpus", str(afile), "--count", "1"]) == 2
        assert capsys.readouterr().err == f"not a directory: {afile}\n"
        assert afile.read_text() == "x\n"


class TestGenerateCommand:
    def test_round_trip_through_cli(self, tmp_path, capsys):
        out = tmp_path / "wipe.jsonl"
        gt = tmp_path / "wipe.gt.json"
        assert cli.main(["generate", "Wipe", "--seed", "5",
                         "--out", str(out), "--gt-out", str(gt)]) == 0
        capsys.readouterr()
        assert cli.main(["describe", str(out), "--hand", "left"]) == 0
        text = capsys.readouterr().out
        assert "The left hand wipes the table by a sponge." in text
        doc = json.loads(gt.read_text())
        assert doc["name"] == "Wipe" and doc["relations"]

    def test_seed_determinism_bytewise(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert cli.main(["generate", "Cut", "--seed", "11", "--noise", "0.005",
                             "--out", str(path)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_ground_truth_beside_a_trace_on_stdout(self, tmp_path, capsys):
        gt = tmp_path / "hold.gt.json"
        assert cli.main(["generate", "Hold", "--seed", "2", "--gt-out", str(gt)]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[0])["objects"]
        doc = json.loads(gt.read_text())
        assert doc["name"] == "Hold" and doc["relations"]

    @pytest.mark.parametrize("flag, path, reason", [
        ("--out", "d", "Is a directory"),
        ("--gt-out", "d", "Is a directory"),
        ("--out", "missing/x.jsonl", "No such file or directory"),
    ])
    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys, flag, path, reason):
        (tmp_path / "d").mkdir()
        target = tmp_path / path
        assert cli.main(["generate", "Screw", flag, str(target)]) == 2
        assert capsys.readouterr() == ("", f"cannot write {target}: {reason}\n")
        assert os.listdir(tmp_path / "d") == []

    @pytest.mark.parametrize("flag, value, reason", [
        ("--noise", "inf", "must be a finite number >= 0, got inf"),
        ("--noise", "nan", "must be a finite number >= 0, got nan"),
        ("--noise", "-0.5", "must be a finite number >= 0, got -0.5"),
        ("--points-per-edge", "0", "must be at least 2, got 0"),
        ("--points-per-edge", "1", "must be at least 2, got 1"),
    ])
    def test_unhonourable_flag_is_a_usage_error(self, tmp_path, capsys, flag, value, reason):
        """A noise or lattice the generator cannot honour is refused before
        anything is written, not turned into a clean or unreadable trace."""
        out, gt = tmp_path / "s.jsonl", tmp_path / "s.gt.json"
        assert cli.main(["generate", "Screw", flag, value,
                         "--out", str(out), "--gt-out", str(gt)]) == 2
        assert capsys.readouterr() == ("", f"generate: {flag} {reason}\n")
        assert os.listdir(tmp_path) == []

    def test_stdout_emission(self, capsys):
        assert cli.main(["generate", "Hold", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        first = json.loads(out.splitlines()[0])
        assert "t" in first and "objects" in first


class TestFlagsPerCommand:
    """A command accepts only the flags it reads, and only after its name."""

    @pytest.mark.parametrize("argv", [
        ["describe", "s.jsonl", "--seed", "1"],
        ["describe", "s.jsonl", "--all-levels"],
        ["generate", "--format", "records"],
        ["parse", "tokens.txt", "--set", "k=v"],
        ["parse", "tokens.txt", "--config", "ms.cfg"],
        ["--format", "records", "relations", "t"],
        ["generate", "--corpus-out", "d"],
        ["generate", "--count", "3"],
        ["bench", "c", "--jobs", "2"],
        ["corpus", "d", "Wipe"],
        ["corpus", "d", "--noise", "0.5"],
        ["corpus", "d", "--set", "k=v"],
    ], ids=["describe-seed", "describe-all-levels", "generate-format", "parse-set",
            "parse-config", "flag-before-command", "generate-corpus-out", "generate-count",
            "bench-jobs", "corpus-scenario", "corpus-noise", "corpus-set"])
    def test_unread_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert "usage: manipsem" in capsys.readouterr().err


class TestConfigPlumbing:
    def test_config_file_and_flag_precedence(self, tmp_path, monkeypatch, capsys):
        cfg_file = tmp_path / "ms.cfg"
        cfg_file.write_text("theta_near = 0.5\n eps_touch = 0.002\n")
        monkeypatch.setenv("MANIPSEM_CONFIG", str(cfg_file))
        from manipsem.config import load_run_config
        cfg = load_run_config()
        assert cfg.relation.theta_near == 0.5
        assert cfg.geometry.eps_touch == 0.002
        cfg2 = load_run_config().with_overrides(eps_touch="0.004")
        assert cfg2.geometry.eps_touch == 0.004

    def test_config_path_and_stream_read_alike(self, tmp_path, monkeypatch):
        # a lone "\r" is no line break, whichever way the file is read
        from manipsem.config import RunConfig, load_run_config, parse_config_text, read_text
        data = b"eps_touch = 0.004  # tighter\rthan the default\nwindow = 6\n"
        path = tmp_path / "ms.cfg"
        path.write_bytes(data)
        monkeypatch.delenv("MANIPSEM_CONFIG", raising=False)
        from_path = load_run_config(str(path))
        assert from_path == RunConfig().with_overrides(
            **parse_config_text(read_text(io.BytesIO(data))))
        assert (from_path.geometry.eps_touch, from_path.relation.window) == (0.004, 6)

    def test_unknown_config_key_rejected(self):
        from manipsem.config import RunConfig
        with pytest.raises(KeyError):
            RunConfig().with_overrides(wibble=3)

    def test_set_flag(self, nested_trace, capsys):
        assert cli.main(["relations", nested_trace, "--set", "theta_near=0.9"]) == 0

    @pytest.mark.parametrize("flags, message", [
        (["--set", "eps_geom=1e-9"], "unknown config key: eps_geom"),
        (["--set", "eps_touch=abc"], "could not convert"),
        (["--set", "eps_touch=-1"], "eps_touch must be >= 0"),
        (["--set", "eps_touch"], "--set expects key=value"),
        (["--config", "missing.cfg"], "No such file"),
        (["--set", "eps_bnd=1e-7"], "unknown config key: eps_bnd"),
    ])
    def test_bad_config_exits_7(self, nested_trace, flags, message, capsys):
        assert cli.main(["relations", nested_trace, *flags]) == cli.EXIT_CONFIG == 7
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("flag, message", [
        ("eps_touch=abc", "eps_touch: could not convert string to float: 'abc'"),
        ("window=1.5", "window: invalid literal for int()"),
        ("debounce=two", "debounce: invalid literal for int()"),
    ])
    def test_bad_value_names_its_key(self, nested_trace, flag, message, capsys):
        assert cli.main(["relations", nested_trace, "--set", flag]) == 7
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("kv, message", [
        ("eps_touch=nan", "eps_touch must be finite"),
        ("eps_touch=inf", "eps_touch must be finite"),
        ("theta_near=nan", "relation thresholds must be finite"),
        ("delta_move=inf", "relation thresholds must be finite"),
        ("delta_rel=-nan", "relation thresholds must be finite"),
        ("distinguish_in_su=maybe", "distinguish_in_su: expected one of 1/true/yes/on/0/false/no/off"),
    ])
    def test_nonfinite_or_unknown_value_exits_7(self, nested_trace, kv, message, capsys):
        assert cli.main(["describe", nested_trace, "--set", kv]) == 7
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("word, flag", [("ON", True), ("yes", True), ("0", False), ("off", False)])
    def test_flag_words(self, word, flag):
        from manipsem.config import RunConfig
        assert RunConfig().with_overrides(distinguish_in_su=word).relation.distinguish_in_su is flag

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0c"])
    def test_config_lines_split_at_newline_only(self, char):
        from manipsem.config import parse_config_text
        text = f"# note:{char}a b\r\neps_touch = 0.01\nwindow = 4{char}\n"
        assert parse_config_text(text) == {"eps_touch": "0.01", "window": "4"}
        with pytest.raises(ValueError, match="config line 3:"):
            parse_config_text(f"# {char}x\neps_touch = 0.01\nwindow 4\n")

    def test_config_line_without_equals_exits_7(self, nested_trace, tmp_path, capsys):
        cfg_file = tmp_path / "ms.cfg"
        cfg_file.write_text("theta_near = 0.5\neps_touch 0.002\n")
        assert cli.main(["describe", nested_trace, "--config", str(cfg_file)]) == 7
        assert "config error: config line 2" in capsys.readouterr().err


class TestResourceErrors:
    """Bad library or template files are configuration errors (exit 7)."""

    HOLD = "action Hold\nhands one\nH T ?object To ?place\nend\n"

    @pytest.mark.parametrize("text, message", [
        ("action Bad\nhands one\nH Q ?object To ?place\nend\n",
         "library_path: line 7: unknown primitive token 'Q'"),
        ("action SteadyWipe\nhands both\nleft:\nH T ?support To ?place\nend\n",
         "library_path: line 6: only one-handed entries are supported: 'hands both'"),
    ], ids=["unknown-primitive", "two-handed"])
    def test_bad_library_exits_7(self, screw_trace, tmp_path, text, message, capsys):
        lib_file = tmp_path / "lib.txt"
        lib_file.write_text(self.HOLD + text)
        assert cli.main(["describe", screw_trace, "--set", f"library_path={lib_file}"]) == 7
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("key", ["library_path", "template_path"])
    def test_missing_resource_file_exits_7(self, screw_trace, tmp_path, key, capsys):
        missing = tmp_path / "missing.txt"
        assert cli.main(["describe", screw_trace, "--set", f"{key}={missing}"]) == 7
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ") and "No such file" in err

    def test_template_file_lacking_a_verb_exits_7(self, screw_trace, tmp_path, capsys):
        text = importlib.resources.files("manipsem").joinpath(
            "data/templates.txt").read_text("utf-8")
        kept = [line for line in text.splitlines() if not line.startswith("verb.T.sg ")]
        ts_file = tmp_path / "templates.txt"
        ts_file.write_text("\n".join(kept) + "\n")
        assert cli.main(["describe", screw_trace, "--level", "1",
                         "--set", f"template_path={ts_file}"]) == 7
        assert capsys.readouterr().err == "config error: missing template verb.T.sg\n"


class TestPipelineDocument:
    def test_document_structure(self, screw_trace):
        from manipsem.events import load_trace
        analysis = analyze_trace(load_trace(screw_trace))
        doc = describe_document(analysis, hands=("left", "right"))
        assert doc.count("For the left hand:") == 1
        assert doc.count("For the right hand:") == 1
        (episode,) = analysis.hands["left"].episodes
        tops = [k for k, _ in describe_hand(analysis, "left", max(episode.levels()))]
        assert tops == [3]

    def test_absent_hand_reports_idle(self, nested_trace):
        from manipsem.events import load_trace
        analysis = analyze_trace(load_trace(nested_trace))
        pairs = describe_hand(analysis, "left")
        assert pairs[0][1].texts() == ["Idle."]
