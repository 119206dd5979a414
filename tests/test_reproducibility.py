"""`tests/reproducibility.sh`, which CI runs in a fresh process, parses as
bash, so a script that cannot run fails tier-1 rather than only CI."""

import pathlib
import subprocess

SCRIPT = pathlib.Path(__file__).resolve().parent / "reproducibility.sh"


def test_script_parses():
    result = subprocess.run(["bash", "-n", str(SCRIPT)], capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
