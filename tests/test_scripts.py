"""The command-line scripts under scripts/, run as a user runs them: in a
fresh interpreter, importing the package from the checkout's src/."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_run_corpus(tmp_path):
    target = tmp_path / "corpus"
    out = run_script("run_corpus.py", "--dir", str(target))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == f"corpus written to {target}/"
    rows = [line for line in lines[2:] if line.strip()]
    assert len(rows) == len(list(target.glob("*.json"))) > 0
    assert all(row.endswith("[ok]") for row in rows), out.stdout
    assert "FAIL" not in out.stdout


def test_random_survey_rank2():
    out = run_script("random_survey.py", "--count", "60", "--seed", "3")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(
        "seed 3: 60 injective endomorphisms of rank 2, image length <= 4")
    assert "  analyzed:            58\n" in out.stdout
    assert "  theorem violations:  0\n" in out.stdout
    assert "  ind == 1 - rk - a:   66/66 verified classes\n" in out.stdout


def test_random_survey_rank3():
    out = run_script("random_survey.py", "--count", "30", "--seed", "3",
                     "--rank", "3", "--max-image-len", "3")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(
        "seed 3: 30 injective endomorphisms of rank 3, image length <= 3")
    assert "  analyzed:            27\n" in out.stdout
    assert "  theorem violations:  0\n" in out.stdout
    assert "  ind == 1 - rk - a:   22/22 verified classes\n" in out.stdout
