import json
import re

import pytest

from dossier import cli
from dossier.cli import (
    EXIT_ALL_FAILED,
    EXIT_FILE_ERROR,
    EXIT_NO_COLLECTORS,
    EXIT_OK,
    EXIT_USAGE,
    PipelineConfig,
    main,
    parse_args,
    run_pipeline,
)
from dossier.collect.corpus import load_corpus

from conftest import BAD_QUERY_TEMPLATES, NON_ASCII_HTTP_FIELDS, closed_port, fact, write_jsonl

EMAIL_COLLECTORS = [
    "maltego",
    "pipl",
    "rapportive",
    "searchbug",
    "verify_email",
    "whatbreach",
]


def run_args(corpus, out, *extra) -> list:
    return ["run", "--corpus", str(corpus), "--out", str(out), *extra]


class TestParseArgs:
    def test_defaults(self, tmp_path):
        config = parse_args(
            run_args(tmp_path / "c.jsonl", tmp_path / "r.md", "--input", "x")
        )
        assert config.template == "employee"
        assert config.fmt == "md"
        assert config.kind == "auto"
        assert config.region == "IN"
        assert config.timeout_ms == 5000
        assert config.max_parallel == 8
        assert config.min_relevance == 0.2
        assert config.include_unattributed is False
        assert config.pin_timestamp is None
        assert config.registry_path is None

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["run"],  # missing required flags
            ["run", "--input", "x", "--corpus", "c", "--out", "r", "--kind", "psychic"],
            ["run", "--input", "x", "--corpus", "c", "--out", "r", "--template", "zz"],
            ["run", "--input", "x", "--corpus", "c", "--out", "r", "--format", "pdf"],
            ["run", "--input", "x", "--corpus", "c", "--out", "r", "--timeout-ms", "0"],
            ["run", "--input", "x", "--corpus", "c", "--out", "r", "--max-parallel", "0"],
            ["run", "--input", "x", "--corpus", "c", "--out", "r", "--min-relevance", "1.5"],
            ["run", "--input", "x", "--corpus", "c", "--out", "r", "--pin-timestamp", "yesterday"],
            ["run", "--input", "x", "--corpus", "c", "--out", "r", "--mystery-flag"],
        ],
    )
    def test_bad_usage_exits_2(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        capsys.readouterr()  # swallow argparse noise

    def test_z_suffix_timestamp_accepted(self, tmp_path):
        config = parse_args(
            run_args(
                tmp_path / "c.jsonl",
                tmp_path / "r.md",
                "--input",
                "x",
                "--pin-timestamp",
                "2020-01-01T00:00:00Z",
            )
        )
        assert config.pin_timestamp == "2020-01-01T00:00:00Z"

    def test_builtin_corpus_sentinel_resolves_to_bundled_file(self, tmp_path):
        config = parse_args(run_args("builtin", tmp_path / "r.md", "--input", "x"))
        assert config.corpus_path.endswith("case_studies.jsonl")

    def test_builtin_corpus_sentinel_runs(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        code = main(
            run_args(
                "builtin",
                out,
                "--input",
                "Harry Styles",
                "--template",
                "matrimonial",
            )
        )
        assert code == EXIT_OK
        assert "harry styles" in out.read_text()
        capsys.readouterr()


class TestExitCodes:
    def test_happy_path_writes_report_and_summary(self, john_smith_corpus, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(
            run_args(
                john_smith_corpus,
                out,
                "--input",
                "john.smith@beta.example",
                "--pin-timestamp",
                "2020-01-01T00:00:00+00:00",
            )
        )
        assert code == EXIT_OK
        assert out.is_file()
        stdout = capsys.readouterr().out
        assert re.fullmatch(
            rf"wrote {re.escape(str(out))}: cluster size \d+, match \d+\.\d{{4}}, "
            rf"collectors 6 ok / 0 failed\n",
            stdout,
        )
        text = out.read_text()
        assert "# Profile report: john.smith@beta.example" in text
        assert "- Generated: 2020-01-01T00:00:00+00:00" in text

    def test_invalid_input_exits_2(self, john_smith_corpus, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(run_args(john_smith_corpus, out, "--input", "   "))
        assert code == EXIT_USAGE
        assert "invalid input" in capsys.readouterr().err
        assert not out.exists()

    def test_hint_mismatch_exits_2(self, john_smith_corpus, tmp_path, capsys):
        code = main(
            run_args(
                john_smith_corpus,
                tmp_path / "r.md",
                "--input",
                "definitely not a phone",
                "--kind",
                "phone",
            )
        )
        assert code == EXIT_USAGE
        assert "invalid input" in capsys.readouterr().err

    def test_a_domain_the_idna_codec_refuses_exits_2(self, john_smith_corpus, tmp_path, capsys):
        out = tmp_path / "r.md"
        code = main(run_args(john_smith_corpus, out, "--input", "ü..de", "--kind", "domain"))
        assert code == EXIT_USAGE
        assert "not a valid domain: 'ü..de'" in capsys.readouterr().err
        assert not out.exists()

    def test_unroutable_kind_exits_3(self, john_smith_corpus, tmp_path, capsys):
        overlay = tmp_path / "overlay.json"
        # The only two built-in collectors that take a domain.
        overlay.write_text(json.dumps({"disable": ["maltego", "vivial"]}))
        out = tmp_path / "report.md"
        code = main(
            run_args(john_smith_corpus, out, "--input", "example.edu", "--registry", str(overlay))
        )
        assert code == EXIT_NO_COLLECTORS
        assert "no registered collector accepts domain queries" in capsys.readouterr().err
        assert not out.exists()

    def test_kind_image_is_no_kind_and_exits_2(self, john_smith_corpus, tmp_path, capsys):
        image = tmp_path / "face.png"
        image.write_bytes(b"\x89PNG fake")
        out = tmp_path / "report.md"
        code = main(run_args(john_smith_corpus, out, "--input", str(image), "--kind", "image"))
        assert code == EXIT_USAGE
        assert "invalid choice: 'image'" in capsys.readouterr().err
        assert not out.exists()

    def test_an_overlay_column_image_exits_5_naming_the_unknown_column(
        self, john_smith_corpus, tmp_path, capsys
    ):
        overlay = tmp_path / "overlay.json"
        overlay.write_text(json.dumps({"add": [{"name": "faces", "accepts": ["image"]}]}))
        out = tmp_path / "report.md"
        code = main(
            run_args(
                john_smith_corpus,
                out,
                "--input",
                "john.smith@beta.example",
                "--registry",
                str(overlay),
            )
        )
        assert code == EXIT_FILE_ERROR
        assert "collector 'faces' has unknown accepts columns ['image']" in capsys.readouterr().err
        assert not out.exists()

    def test_all_collectors_failing_exits_4(self, john_smith_corpus, tmp_path, capsys):
        overlay = tmp_path / "overlay.json"
        overlay.write_text(
            json.dumps(
                {
                    "disable": EMAIL_COLLECTORS,
                    "add": [
                        {
                            "name": "deademail",
                            "accepts": ["email"],
                            "backend": "http",
                            "http": {
                                "base": f"http://127.0.0.1:{closed_port()}",
                                "query_template": "/q?v={value}",
                            },
                        }
                    ],
                }
            )
        )
        out = tmp_path / "report.md"
        code = main(
            run_args(
                john_smith_corpus,
                out,
                "--input",
                "john.smith@beta.example",
                "--registry",
                str(overlay),
                "--timeout-ms",
                "2000",
            )
        )
        assert code == EXIT_ALL_FAILED
        err = capsys.readouterr().err
        assert "all collectors failed" in err
        assert "deademail" in err
        assert not out.exists()

    def test_missing_corpus_exits_5(self, tmp_path, capsys):
        code = main(
            run_args(tmp_path / "absent.jsonl", tmp_path / "r.md", "--input", "x y")
        )
        assert code == EXIT_FILE_ERROR
        assert "corpus error" in capsys.readouterr().err

    def test_corrupt_corpus_exits_5(self, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text('{"subject_id": "s"}\n')
        code = main(run_args(corpus, tmp_path / "r.md", "--input", "x y"))
        assert code == EXIT_FILE_ERROR
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "digits, message",
        [
            # Too large for a float; and past int's digit limit, which JSON refuses.
            (401, "line 1: confidence must be within [0, 1]"),
            (5001, "line 1: not valid JSON (Exceeds the limit"),
        ],
        ids=["too-large-for-a-float", "past-the-digit-limit"],
    )
    def test_huge_integer_confidence_exits_5_without_a_report(
        self, tmp_path, capsys, digits, message
    ):
        corpus = tmp_path / "huge.jsonl"
        line = json.dumps(fact("s", "full_name", "Ann Lee", ["webmii"], 0.5))
        corpus.write_text(line.replace("0.5", "1" + "0" * (digits - 1)) + "\n")
        out = tmp_path / "r.md"
        code = main(run_args(corpus, out, "--input", "Ann Lee"))
        assert code == EXIT_FILE_ERROR
        assert capsys.readouterr().err.startswith(f"corpus error: {message}")
        assert not out.exists()

    def test_non_utf8_corpus_exits_5_without_a_report(self, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_bytes(b"\xff\n")
        out = tmp_path / "r.md"
        code = main(run_args(corpus, out, "--input", "Ann Lee"))
        assert code == EXIT_FILE_ERROR
        assert capsys.readouterr().err.startswith("corpus error: ")
        assert not out.exists()

    def test_a_lone_surrogate_in_the_corpus_exits_5_without_a_report(self, tmp_path, capsys):
        # json.dumps writes the surrogate as the escape \ud800.
        corpus = write_jsonl(
            tmp_path / "c.jsonl", [fact("s-1", "full_name", "Ann \ud800Smith", ["webmii"])]
        )
        out = tmp_path / "r.md"
        code = main(run_args(corpus, out, "--input", "Ann Smith"))
        assert code == EXIT_FILE_ERROR
        assert capsys.readouterr().err == (
            "corpus error: line 1: a string is not UTF-8 text (it holds a lone surrogate)\n"
        )
        assert not out.exists()

    def test_a_lone_surrogate_in_the_overlay_exits_5_without_a_report(
        self, john_smith_corpus, tmp_path, capsys
    ):
        overlay = tmp_path / "overlay.json"
        overlay.write_text(json.dumps({"add": [{"name": "x\ud800", "accepts": ["email"]}]}))
        out = tmp_path / "r.md"
        code = main(
            run_args(
                john_smith_corpus,
                out,
                "--input",
                "john.smith@beta.example",
                "--registry",
                str(overlay),
            )
        )
        assert code == EXIT_FILE_ERROR
        assert "not UTF-8 text (it holds a lone surrogate)" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_overlay_exits_5(self, john_smith_corpus, tmp_path, capsys):
        overlay = tmp_path / "overlay.json"
        overlay.write_text("{broken")
        code = main(
            run_args(
                john_smith_corpus,
                tmp_path / "r.md",
                "--input",
                "x y",
                "--registry",
                str(overlay),
            )
        )
        assert code == EXIT_FILE_ERROR
        assert "registry error" in capsys.readouterr().err

    def test_mistyped_overlay_exits_5_without_a_report(
        self, john_smith_corpus, tmp_path, capsys
    ):
        overlay = tmp_path / "overlay.json"
        entry = {
            "name": "x",
            "accepts": ["email"],
            "backend": "http",
            "http": {"base": "http://127.0.0.1:1", "method": 5},
        }
        overlay.write_text(json.dumps({"add": [entry]}))
        out = tmp_path / "r.md"
        code = main(
            run_args(
                john_smith_corpus,
                out,
                "--input",
                "john.smith@beta.example",
                "--registry",
                str(overlay),
            )
        )
        assert code == EXIT_FILE_ERROR
        assert "method must be a string" in capsys.readouterr().err
        assert not out.exists()

    def test_an_http_entry_that_is_no_object_exits_5_without_a_report(
        self, john_smith_corpus, tmp_path, capsys
    ):
        overlay = tmp_path / "overlay.json"
        entry = {"name": "x", "accepts": ["email"], "backend": "http", "http": "http://h"}
        overlay.write_text(json.dumps({"add": [entry]}))
        out = tmp_path / "r.md"
        code = main(
            run_args(
                john_smith_corpus,
                out,
                "--input",
                "john.smith@beta.example",
                "--registry",
                str(overlay),
            )
        )
        assert code == EXIT_FILE_ERROR
        assert "collector 'x': http must be an object" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_integer_reliability_exits_5_without_a_report(
        self, john_smith_corpus, tmp_path, capsys
    ):
        overlay = tmp_path / "overlay.json"
        entry = {"name": "zz", "accepts": ["email"], "reliability": 10**400}
        overlay.write_text(json.dumps({"add": [entry]}))
        out = tmp_path / "r.md"
        code = main(
            run_args(
                john_smith_corpus,
                out,
                "--input",
                "john.smith@beta.example",
                "--registry",
                str(overlay),
            )
        )
        assert code == EXIT_FILE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("registry error: ")
        assert "reliability must be within [0, 1]" in err
        assert not out.exists()

    @pytest.mark.parametrize("template", BAD_QUERY_TEMPLATES)
    def test_bad_query_template_exits_5_without_a_report(
        self, john_smith_corpus, tmp_path, capsys, template
    ):
        overlay = tmp_path / "overlay.json"
        entry = {
            "name": "x",
            "accepts": ["email"],
            "backend": "http",
            "http": {"base": "http://127.0.0.1:1", "query_template": template},
        }
        overlay.write_text(json.dumps({"add": [entry]}))
        out = tmp_path / "r.md"
        code = main(
            run_args(
                john_smith_corpus,
                out,
                "--input",
                "john.smith@beta.example",
                "--registry",
                str(overlay),
            )
        )
        assert code == EXIT_FILE_ERROR
        assert "registry error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", NON_ASCII_HTTP_FIELDS)
    def test_non_ascii_base_or_query_template_exits_5_without_a_report(
        self, john_smith_corpus, tmp_path, capsys, field, value
    ):
        overlay = tmp_path / "overlay.json"
        entry = {
            "name": "x",
            "accepts": ["email"],
            "backend": "http",
            "http": {"base": "http://127.0.0.1:1", field: value},
        }
        overlay.write_text(json.dumps({"add": [entry]}))
        out = tmp_path / "r.md"
        code = main(
            run_args(
                john_smith_corpus,
                out,
                "--input",
                "john.smith@beta.example",
                "--registry",
                str(overlay),
            )
        )
        assert code == EXIT_FILE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("registry error: ")
        assert f"collector 'x': {field} must be ASCII" in err
        assert not out.exists()


class TestAtomicWrites:
    def test_failed_run_preserves_existing_report(self, john_smith_corpus, tmp_path, capsys):
        out = tmp_path / "report.md"
        out.write_text("precious previous report")
        code = main(run_args(john_smith_corpus, out, "--input", "   "))
        assert code == EXIT_USAGE
        assert out.read_text() == "precious previous report"
        capsys.readouterr()

    def test_unknown_region_exits_2_and_preserves_existing_report(
        self, john_smith_corpus, tmp_path, capsys
    ):
        out = tmp_path / "report.md"
        out.write_text("precious previous report")
        code = main(
            run_args(john_smith_corpus, out, "--input", "John Smith", "--region", "ZZ")
        )
        assert code == EXIT_USAGE
        assert "--region 'ZZ' has no known dialing code" in capsys.readouterr().err
        assert out.read_text() == "precious previous report"

    def test_library_run_with_unknown_region_exits_2_and_preserves_existing_report(
        self, tmp_path, capsys
    ):
        rows = [
            fact("s-p", "phone", "098765 43210", ["bmobile", "maltego", "pipl"]),
            fact("s-p", "full_name", "Pat Doe", ["maltego", "webmii"]),
        ]
        out = tmp_path / "report.md"
        out.write_text("precious previous report")
        config = PipelineConfig(
            input_text="Pat Doe",
            corpus_path=write_jsonl(tmp_path / "phones.jsonl", rows),
            out_path=str(out),
            region="ZZ",
        )
        assert run_pipeline(config) == EXIT_USAGE
        assert "--region 'ZZ' has no known dialing code" in capsys.readouterr().err
        assert out.read_text() == "precious previous report"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kind", "fax"),
            ("kind", []),
            ("template", "wedding"),
            ("fmt", "pdf"),
            ("timeout_ms", 0),
            ("max_parallel", 0),
            ("min_relevance", 1.5),
            ("min_relevance", True),
            ("pin_timestamp", "yesterday"),
            ("pin_timestamp", b"2020-01-01T00:00:00Z"),
            ("input_text", 123),
            ("include_unattributed", "no"),
            ("corpus_path", 123),
            ("out_path", 123),
            ("registry_path", 123),
        ],
    )
    def test_library_run_with_a_bad_value_exits_2_before_reading_anything(
        self, tmp_path, capsys, field, value
    ):
        # Neither file exists: reading either would exit 5, not 2.
        out = tmp_path / "report.md"
        out.write_text("precious previous report")
        fields = {
            "input_text": "John Smith",
            "corpus_path": str(tmp_path / "missing.jsonl"),
            "out_path": str(out),
            "registry_path": str(tmp_path / "missing.json"),
        }
        config = PipelineConfig(**{**fields, field: value})
        assert run_pipeline(config) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("invalid config: ")
        assert [p.name for p in tmp_path.iterdir()] == ["report.md"]
        assert out.read_text() == "precious previous report"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("region", "ZZ"),
            ("region", None),
            ("timeout_ms", 10_000_000_000_000),
            ("timeout_ms", True),
            ("max_parallel", True),
        ],
    )
    def test_library_run_refuses_what_the_cli_refuses_before_reading_anything(
        self, tmp_path, capsys, field, value
    ):
        # Neither file exists: reading either would exit 5, not 2.
        out = tmp_path / "report.md"
        config = PipelineConfig(
            input_text="John Smith",
            corpus_path=str(tmp_path / "missing.jsonl"),
            out_path=str(out),
            registry_path=str(tmp_path / "missing.json"),
            **{field: value},
        )
        assert run_pipeline(config) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("invalid config: ")
        assert repr(value) in err
        assert list(tmp_path.iterdir()) == []

    def test_non_utf8_input_exits_2_before_reading_anything(self, tmp_path, capsys):
        # POSIX argv decoding turns the byte \xff into the lone surrogate
        # \udcff, which no report can encode as UTF-8.
        raw = "Harry\udcffStyles"
        out = tmp_path / "r.md"
        assert main(run_args("builtin", out, "--input", raw)) == EXIT_USAGE
        assert "--input is not UTF-8 text: 'Harry\\udcffStyles'" in capsys.readouterr().err
        # The corpus does not exist: reading it would exit 5, not 2.
        config = PipelineConfig(
            input_text=raw, corpus_path=str(tmp_path / "missing.jsonl"), out_path=str(out)
        )
        assert run_pipeline(config) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("invalid config: --input is not UTF-8 text")
        assert list(tmp_path.iterdir()) == []

    def test_timeout_past_the_wait_limit_exits_2_without_a_traceback(
        self, john_smith_corpus, tmp_path, capsys
    ):
        overlay = tmp_path / "overlay.json"
        dead = {
            "name": "deademail",
            "accepts": ["email"],
            "backend": "http",
            "http": {"base": f"http://127.0.0.1:{closed_port()}", "query_template": "/q"},
        }
        overlay.write_text(json.dumps({"add": [dead]}))
        out = tmp_path / "report.md"
        argv = run_args(
            john_smith_corpus,
            out,
            "--input",
            "john.smith@beta.example",
            "--registry",
            str(overlay),
            "--timeout-ms",
            "10000000000000",
        )
        assert main(argv) == EXIT_USAGE
        assert "not 10000000000000" in capsys.readouterr().err
        config = PipelineConfig(
            input_text="john.smith@beta.example",
            corpus_path=john_smith_corpus,
            out_path=str(out),
            registry_path=str(overlay),
            timeout_ms=10_000_000_000_000,
        )
        assert run_pipeline(config) == EXIT_USAGE
        assert "not 10000000000000" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_exits_5_without_partial_file(
        self, john_smith_corpus, tmp_path, capsys
    ):
        out = tmp_path / "no_such_dir" / "report.md"
        code = main(
            run_args(john_smith_corpus, out, "--input", "john.smith@beta.example")
        )
        assert code == EXIT_FILE_ERROR
        assert "cannot write report" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_a_failed_rename_exits_5_and_removes_its_temp_file(
        self, john_smith_corpus, tmp_path, capsys, monkeypatch
    ):
        def refuse(source, target):
            raise OSError("rename refused")

        monkeypatch.setattr(cli.os, "replace", refuse)
        out = tmp_path / "report.md"
        out.write_bytes(b"precious previous report")
        code = main(run_args(john_smith_corpus, out, "--input", "john.smith@beta.example"))
        assert code == EXIT_FILE_ERROR
        assert "cannot write report" in capsys.readouterr().err
        assert out.read_bytes() == b"precious previous report"
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_no_temp_files_left_behind(self, john_smith_corpus, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(
            run_args(john_smith_corpus, out, "--input", "john.smith@beta.example")
        )
        assert code == EXIT_OK
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []
        capsys.readouterr()


class TestPipelineBehaviour:
    def test_unattributed_evidence_is_opt_in(self, john_smith_corpus, tmp_path, capsys):
        out_default = tmp_path / "default.md"
        assert (
            main(run_args(john_smith_corpus, out_default, "--input", "John Smith"))
            == EXIT_OK
        )
        default_text = out_default.read_text()
        # beta wins on visibility; alpha's email is another person's evidence
        assert "john.smith@beta.example" in default_text
        assert "john.smith@alpha.example" not in default_text
        assert "rejected candidates: 1" in default_text

        out_all = tmp_path / "all.md"
        assert (
            main(
                run_args(
                    john_smith_corpus,
                    out_all,
                    "--input",
                    "John Smith",
                    "--include-unattributed",
                )
            )
            == EXIT_OK
        )
        full_text = out_all.read_text()
        assert "john.smith@beta.example" in full_text
        assert "john.smith@alpha.example" in full_text  # 0.9 * 0.25 = 0.225 >= 0.2
        capsys.readouterr()

    def test_min_relevance_prunes_unattributed_evidence(
        self, john_smith_corpus, tmp_path, capsys
    ):
        out = tmp_path / "strict.md"
        assert (
            main(
                run_args(
                    john_smith_corpus,
                    out,
                    "--input",
                    "John Smith",
                    "--include-unattributed",
                    "--min-relevance",
                    "0.3",
                )
            )
            == EXIT_OK
        )
        text = out.read_text()
        assert "john.smith@alpha.example" not in text  # 0.225 < 0.3
        capsys.readouterr()

    def test_json_and_csv_formats(self, john_smith_corpus, tmp_path, capsys):
        out_json = tmp_path / "r.json"
        assert (
            main(
                run_args(
                    john_smith_corpus,
                    out_json,
                    "--input",
                    "john.smith@beta.example",
                    "--format",
                    "json",
                )
            )
            == EXIT_OK
        )
        payload = json.loads(out_json.read_text())
        assert payload["query"]["kind"] == "email"
        assert payload["failures"] == []

        out_csv = tmp_path / "r.csv"
        assert (
            main(
                run_args(
                    john_smith_corpus,
                    out_csv,
                    "--input",
                    "john.smith@beta.example",
                    "--format",
                    "csv",
                )
            )
            == EXIT_OK
        )
        header = out_csv.read_text().splitlines()[0]
        assert header == "section,attribute,value,sources,confidence"
        capsys.readouterr()

    def test_region_flag_reaches_phone_classification(self, tmp_path, capsys):
        rows = [
            fact("s-p", "phone", "+14122682597", ["bmobile", "maltego", "pipl"]),
            fact("s-p", "full_name", "Pat Doe", ["maltego"]),
        ]
        corpus = write_jsonl(tmp_path / "phones.jsonl", rows)
        out = tmp_path / "r.md"
        code = main(
            run_args(
                corpus,
                out,
                "--input",
                "(412) 268-2597",
                "--kind",
                "phone",
                "--region",
                "US",
            )
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert "+14122682597" in text
        assert "Pat Doe" in text
        capsys.readouterr()

    def test_region_is_read_in_upper_case(self, tmp_path, capsys):
        rows = [
            fact("s-p", "phone", "098765 43210", ["bmobile", "maltego", "pipl"]),
            fact("s-p", "full_name", "Pat Doe", ["maltego"]),
        ]
        corpus = write_jsonl(tmp_path / "phones.jsonl", rows)
        rendered = []
        for region in ("in", "IN"):
            out = tmp_path / f"r-{region}.md"
            argv = run_args(
                corpus, out, "--input", "098765 43210", "--region", region,
                "--pin-timestamp", "2020-01-01T00:00:00+00:00",
            )
            assert parse_args(argv).region == "IN"
            assert main(argv) == EXIT_OK
            rendered.append(out.read_bytes())
        assert rendered[0] == rendered[1]
        assert b"+9109876543210" in rendered[0]
        capsys.readouterr()

    def test_library_run_reads_region_in_upper_case(self, tmp_path, capsys, monkeypatch):
        rows = [
            fact("s-p", "phone", "098765 43210", ["bmobile", "maltego", "pipl"]),
            fact("s-p", "full_name", "Pat Doe", ["maltego"]),
        ]
        corpus = load_corpus(write_jsonl(tmp_path / "phones.jsonl", rows))
        monkeypatch.setattr(cli, "load_corpus", lambda path: corpus)
        rendered = []
        for region in ("in", "IN"):
            out = tmp_path / f"r-{region}.md"
            config = PipelineConfig(
                input_text="098765 43210",
                corpus_path="shared",
                out_path=str(out),
                region=region,
                pin_timestamp="2020-01-01T00:00:00+00:00",
            )
            assert run_pipeline(config) == EXIT_OK
            rendered.append(out.read_bytes())
        assert rendered[0] == rendered[1]
        assert b"+9109876543210" in rendered[0]
        phone_indexes = [key for key in corpus._indexes if key[:2] == ("identifier", "phone")]
        assert phone_indexes == [("identifier", "phone", "IN")]
        capsys.readouterr()

    def test_national_phone_in_corpus_found_by_the_same_string(self, tmp_path, capsys):
        rows = [
            fact("s-p", "phone", "098765 43210", ["bmobile", "maltego", "pipl"]),
            fact("s-p", "full_name", "Pat Doe", ["maltego"]),
        ]
        out = tmp_path / "r.json"
        config = PipelineConfig(
            input_text="098765 43210",
            corpus_path=write_jsonl(tmp_path / "phones.jsonl", rows),
            out_path=str(out),
            fmt="json",
        )
        assert run_pipeline(config) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["candidate"]["cluster_size"] > 0
        assert report["candidate"]["rejected_candidates"] == 0  # one candidate
        facts = {
            (f["attribute"], f["value"])
            for section in report["sections"]
            for f in section["facts"]
        }
        assert ("phone", "+9109876543210") in facts
        capsys.readouterr()

    @pytest.mark.parametrize("domain", ["xn--bcher-kva.de", "bücher.de"])
    def test_a_domain_query_finds_a_non_ascii_host_by_either_spelling(
        self, tmp_path, capsys, domain
    ):
        rows = [
            fact("s-ann", "email", "ann@bücher.de", ["maltego"]),
            fact("s-ann", "url", "https://Blog.BÜCHER.de/x", ["maltego"]),
            fact("s-ann", "full_name", "Ann Weber", ["maltego"]),
            fact("s-bo", "email", "bo@bucher.de", ["maltego"]),
        ]
        out = tmp_path / "r.json"
        corpus = write_jsonl(tmp_path / "hosts.jsonl", rows)
        assert main(run_args(corpus, out, "--input", domain, "--format", "json")) == EXIT_OK
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["query"]["kind"] == "domain"
        assert report["query"]["canonical"] == "xn--bcher-kva.de"
        facts = {f["value"] for section in report["sections"] for f in section["facts"]}
        assert {"ann@xn--bcher-kva.de", "https://Blog.BÜCHER.de/x"} <= facts
        assert "bo@bucher.de" not in facts
        capsys.readouterr()

    def test_no_match_still_writes_empty_report(self, john_smith_corpus, tmp_path, capsys):
        out = tmp_path / "empty.md"
        code = main(
            run_args(john_smith_corpus, out, "--input", "nobody@nowhere.example")
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert "- Candidate: 0 facts" in text
        assert "##" not in text  # no sections at all
        capsys.readouterr()


class TestReportSafety:
    def test_a_bearer_credential_never_reaches_a_report(
        self, john_smith_corpus, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("SVC_TOKEN", "s3cr3t-token\n")
        overlay = tmp_path / "overlay.json"
        svc = {
            "name": "svc",
            "accepts": ["email"],
            "backend": "http",
            "http": {
                "base": f"http://127.0.0.1:{closed_port()}",
                "query_template": "/q?v={value}",
                "credential_env": "SVC_TOKEN",
            },
        }
        overlay.write_text(json.dumps({"add": [svc]}))
        for fmt in ("md", "json", "csv"):
            out = tmp_path / f"r.{fmt}"
            argv = run_args(
                john_smith_corpus, out, "--input", "john.smith@beta.example",
                "--registry", str(overlay), "--format", fmt,
            )
            assert main(argv) == EXIT_OK
            rendered = out.read_text()
            assert "s3cr3t" not in rendered
            assert "Bearer" not in rendered
        assert (
            "- svc: error (MissingCredentialError: collector 'svc': "
            "$SVC_TOKEN is not an RFC 6750 bearer token)"
        ) in (tmp_path / "r.md").read_text()
        assert "s3cr3t" not in capsys.readouterr().out

    @pytest.mark.parametrize("where", ["value", "collector name", "fetch error"])
    def test_markdown_line_breaks_stay_inside_their_item(self, tmp_path, capsys, where):
        """A line break in a value, a collector name or a fetch error moves
        no heading and adds no item: the headings are the template's."""
        forged = "\n\n## Criminal Record\n\n- criminal_record: forged"
        value_tail, name_tail, error_tail = (
            forged if where == case else "" for case in ("value", "collector name", "fetch error")
        )
        rows = [
            fact("s-a", "email", "ann@x.org", ["pipl", "evil" + name_tail]),
            fact("s-a", "full_name", "Ann Lee" + value_tail, ["pipl"]),
        ]
        dead = {
            "name": "dead" + name_tail,
            "accepts": ["email"],
            "backend": "http",
            "http": {"base": f"http://127.0.0.1:{closed_port()}/q{error_tail}"},
        }
        evil = {"name": "evil" + name_tail, "accepts": ["email"], "backend": "corpus"}
        overlay = tmp_path / "overlay.json"
        overlay.write_text(json.dumps({"add": [dead, evil]}))
        out = tmp_path / "r.md"
        argv = run_args(
            write_jsonl(tmp_path / "ann.jsonl", rows), out, "--input", "ann@x.org",
            "--registry", str(overlay), "--timeout-ms", "2000",
        )
        assert main(argv) == EXIT_OK
        lines = out.read_text(encoding="utf-8").split("\n")
        assert [line for line in lines if line.startswith("#")] == [
            "# Profile report: ann@x.org",
            "## Bio",
            "## Contact Details",
            "## Collection failures",
        ]
        assert not any(line.startswith("- criminal_record") for line in lines)
        assert "\\n\\n## Criminal Record\\n\\n- criminal_record: forged" in out.read_text()
        capsys.readouterr()
