"""Unit tests for the peek-bench CLI."""

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiments == []
        assert args.out == "results"

    def test_experiment_args(self):
        args = build_parser().parse_args(
            ["table3", "--scale", "tiny", "--pairs", "1", "--deadline", "5"]
        )
        assert args.experiments == ["table3"]
        assert args.scale == "tiny"
        assert args.pairs == 1
        assert args.deadline == 5.0


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "fig01" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig04" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["figure99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_profile(self, capsys):
        assert main(["--profile", "LJ", "--scale", "tiny", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "stage breakdown" in out
        assert "pruning" in out

    def test_suite_table(self, capsys):
        assert main(["--suite", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Benchmark suite" in out
        for name in ("R21", "GT", "WLU"):
            assert name in out

    def test_runs_one_experiment(self, tmp_path, capsys):
        rc = main(
            [
                "fig04",
                "--scale", "tiny",
                "--pairs", "1",
                "--deadline", "30",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "fig04_pruning.txt").exists()
        assert "Figure 4" in capsys.readouterr().out
