"""The compare mode of tools/cli_oracle.py on small hand-made output trees."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_oracle.py"
_spec = importlib.util.spec_from_file_location("cli_oracle", TOOL)
cli_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_oracle)


def write_tree(root: Path, distance: str = "0.25", decay_rate: float = 2.0,
               created: str = "a", extra: dict | None = None) -> Path:
    run = root / "run00"
    run.mkdir(parents=True)
    (run / "uniqueness.csv").write_text(f"epsilon,distance\n0.8,{distance}\n0.4,0.0625\n")
    manifest = {"command": "uniqueness", "created": created, "decay_rate": decay_rate,
                "files": ["uniqueness.csv"], "m": 2.0}
    (run / "manifest.json").write_text(json.dumps(manifest | (extra or {})))
    (root / "m.cfg").write_text("m = 3\n")
    return root


def test_identical_trees_pass(tmp_path, capsys):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", created="b")  # the timestamp is skipped
    assert cli_oracle.main(["--compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "0.000e+00  run00/uniqueness.csv" in out
    assert out.splitlines()[-1] == "3 files compared; largest gap 0.000e+00, tolerance 0: ok"


@pytest.mark.parametrize("tol,status", [(1e-12, 0), (1e-14, 1)])
def test_csv_gap_against_the_tolerance(tmp_path, capsys, tol, status):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", distance=repr(0.25 + 2**-43))
    assert cli_oracle.main(["--compare", str(a), str(b), "--tol", str(tol)]) == status
    out = capsys.readouterr().out
    assert "1.137e-13  run00/uniqueness.csv" in out
    assert "largest gap 1.137e-13 in run00/uniqueness.csv," in out.splitlines()[-1]


def test_manifest_prints_each_differing_numeric_key(tmp_path, capsys):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", decay_rate=2.0 + 2**-40)
    assert cli_oracle.main(["--compare", str(a), str(b), "--tol", "1e-11"]) == 0
    out = capsys.readouterr().out
    assert "9.095e-13  run00/manifest.json: decay_rate: 2.0 != 2.0000000000009095" in out
    assert "manifest.json: m:" not in out
    assert out.splitlines()[-1] == ("3 files compared; largest gap 9.095e-13 in "
                                    "run00/manifest.json: decay_rate, tolerance 1e-11: ok")


@pytest.mark.parametrize("extra", [{"command": "sweep"}, {"in_band": True}],
                         ids=["changed-text", "missing-key"])
def test_non_numeric_manifest_difference_fails(tmp_path, extra):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", extra=extra)
    assert cli_oracle.main(["--compare", str(a), str(b), "--tol", "1"]) == 1


def test_different_file_sets_fail(tmp_path, capsys):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b")
    (b / "run00" / "extra.csv").write_text("x\n1\n")
    assert cli_oracle.main(["--compare", str(a), str(b), "--tol", "1"]) == 1
    assert f"only in {b}: run00/extra.csv" in capsys.readouterr().out


def test_changed_table_shape_fails(tmp_path):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", distance="0.25,0.5")
    assert cli_oracle.main(["--compare", str(a), str(b), "--tol", "1"]) == 1


def test_other_files_compare_by_bytes(tmp_path, capsys):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b")
    (b / "m.cfg").write_text("m = 4\n")
    assert cli_oracle.main(["--compare", str(a), str(b), "--tol", "1"]) == 1
    assert "differs  m.cfg" in capsys.readouterr().out
