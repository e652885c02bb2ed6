"""Default CLI output, pinned byte for byte.

Each file under tests/data/ is the stdout of one command, recorded with
the exact-harmonic evaluator that the interval walk over n replaced.
Verdicts, exit codes and printed digits must not depend on how the
certified values are computed.
"""

from pathlib import Path

import pytest

from gammaseq import cli

DATA = Path(__file__).resolve().parent / "data"

GOLDEN = [
    ("sweep_theorem22.json",
     "sweep-bounds --entry theorem22 --from 3 --to 40 --precision 192"),
    ("sweep_chen.csv", "sweep-bounds --entry chen --to 40 --precision 128 --format csv"),
    ("eval_s.json", "eval --seq s --n 3 --to 40 --precision 256"),
    ("eval_uplus.json", "eval --seq uplus --n 1 --to 40 --precision 256"),
    ("rate_r.json", "rate --seq r --grid-start 16 --grid-stop 1024 --precision 256"),
]


@pytest.mark.parametrize("name,command", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_default_output_is_byte_identical(capsys, name, command):
    code = cli.main(command.split())
    assert code == 0
    assert capsys.readouterr().out == (DATA / name).read_text(encoding="utf-8")
