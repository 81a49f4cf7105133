"""``tools/diffgrid.py`` names the runs and streams in which two
checkouts' CLI output differs, and no others."""

import importlib.util
import shutil

from conftest import FIXTURES

ROOT = FIXTURES.parent
_SPEC = importlib.util.spec_from_file_location("diffgrid", ROOT / "tools" / "diffgrid.py")
diffgrid = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diffgrid)


def test_run_names_are_unique(tmp_path):
    names = [run.name for run in diffgrid.grid(tmp_path)]
    assert len(set(names)) == len(names)


def test_planted_message_change_is_named(tmp_path):
    mutant = tmp_path / "mutant"
    shutil.copytree(ROOT / "src", mutant / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = mutant / "src" / "qhadamard" / "cli.py"
    cli.write_text(cli.read_text().replace("expected a QHM file", "expected a QHM filf"))
    rhm = tmp_path / "w.rhm"
    rhm.write_text("RHM 2\n11\n1-\n")
    prints = diffgrid.Run("double-rhm", ("double", str(rhm), "--out", "out"))
    silent = diffgrid.Run("double-s", ("double", str(FIXTURES / "appendixA_S.qhm"), "--out", "out"))
    assert diffgrid.compare(ROOT, ROOT, prints) == []
    assert diffgrid.compare(ROOT, mutant, silent) == []
    assert diffgrid.compare(ROOT, mutant, prints) == ["stderr"]
