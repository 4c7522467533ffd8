"""Tests for the table scripts/cold_wall.py prints, with every process faked."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import cold_wall  # noqa: E402


def test_one_row_per_command_and_tree_with_medians(monkeypatch, capsys):
    runs = []

    def run_once(argv, env):
        # tree "new" takes twice the wall of "old"; each repetition is slower
        runs.append((argv, Path(env["PYTHONPATH"]).name))
        slow = 2.0 if runs[-1][1] == "new" else 1.0
        rep = sum(r == runs[-1] for r in runs)
        return slow * rep, 0.5 * rep, 10.0 * rep

    monkeypatch.setattr(cold_wall, "run_once", run_once)
    assert cold_wall.main(["--src", "old", "--src", "new", "--repeat", "3"]) == 0
    assert len(runs) == 3 * 2 * len(cold_wall.COMMANDS)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("old") and lines[1].endswith("new")
    assert lines[2].split() == ["command", "tree", "wall_s", "cpu_s", "rss_mb", "wall_vs_0"]
    rows = lines[3:]
    assert len(rows) == 2 * len(cold_wall.COMMANDS)
    for (name, _), old, new in zip(cold_wall.COMMANDS, rows[::2], rows[1::2]):
        assert old.startswith(name) and new.startswith(name)
        assert old.split()[-5:] == ["0", "2.000", "1.000", "20.0", "+0.0%"]
        assert new.split()[-5:] == ["1", "4.000", "1.000", "20.0", "+100.0%"]
