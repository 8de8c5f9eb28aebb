"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo", "--scale", "tiny", "--query", "design"]) == 0
        output = capsys.readouterr().out
        assert "48 courses" in output
        assert "collaborative filtering" in output

    def test_stats(self, capsys):
        assert main(["stats", "--scale", "tiny"]) == 0
        output = capsys.readouterr().out
        assert "18605" in output  # paper column
        assert "48" in output  # measured column

    def test_search_with_refinement(self, capsys):
        assert (
            main(
                [
                    "search", "programming", "--scale", "tiny",
                    "--refine", "java", "--top", "3",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "matching courses" in output
        assert "refined with 'java'" in output

    def test_recommend_strategy(self, capsys):
        assert (
            main(
                [
                    "recommend", "--strategy", "related_courses",
                    "--course", "1", "--top", "3", "--scale", "tiny",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert output.count("[") == 3

    def test_recommend_default_strategy_needs_student(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["recommend", "--scale", "tiny"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert "'collaborative_filtering' needs --student" in error

    def test_recommend_execution_paths_agree(self, capsys):
        outputs = []
        for path in ("direct", "sql", "staged"):
            main(
                [
                    "recommend", "--strategy", "related_courses",
                    "--course", "1", "--top", "3", "--scale", "tiny",
                    "--path", path,
                ]
            )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_sql_query(self, capsys):
        assert (
            main(["sql", "SELECT COUNT(*) AS n FROM Students", "--scale", "tiny"])
            == 0
        )
        assert "30" in capsys.readouterr().out

    def test_sql_explain(self, capsys):
        assert (
            main(
                [
                    "sql", "SELECT Title FROM Courses WHERE CourseID = 1",
                    "--scale", "tiny", "--explain",
                ]
            )
            == 0
        )
        assert "primary key" in capsys.readouterr().out

    def test_sql_profile(self, capsys):
        assert (
            main(
                [
                    "sql", "SELECT COUNT(*) AS n FROM Students",
                    "--scale", "tiny", "--analyze",
                ]
            )
            == 0
        )
        # EXPLAIN ANALYZE's per-node counts, a blank line, then the rows
        plan, rows = capsys.readouterr().out.split("\n\n", 1)
        assert "Aggregate" in plan and "out=1 " in plan
        assert "30" in rows

    def test_sql_dml_reports_count(self, capsys):
        assert (
            main(
                [
                    "sql",
                    "DELETE FROM PointsLedger",
                    "--scale", "tiny",
                ]
            )
            == 0
        )
        assert "rows affected" in capsys.readouterr().out

    def test_generate_and_load_roundtrip(self, tmp_path, capsys):
        out_dir = str(tmp_path / "saved")
        assert (
            main(["generate", "--scale", "tiny", "--seed", "3", "--out", out_dir])
            == 0
        )
        capsys.readouterr()
        assert main(["stats", "--load", out_dir]) == 0
        assert "48" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
