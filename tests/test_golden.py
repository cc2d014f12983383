"""The README commands print exactly what `tests/golden/` holds.

Each file is the stdout of one command; `plot` writes its SVG to stdout
instead of to `--out`.  A change that alters any of these outputs must
regenerate the file and say why."""

from pathlib import Path

import pytest

from negabeta.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# file name, argv, exit code
COMMANDS = [
    ("expand.json", "expand --beta 5/2 --digits 10", 2),
    ("classify.json", "classify --beta 13/10", 0),
    ("codes.json", "codes --beta 5/2 --length 8", 0),
    ("complexity.json", "complexity --beta golden --order 8", 0),
    ("laps.json", "laps --beta golden --order 10", 0),
    ("zeta.json", "zeta --beta 2 --order 8", 0),
    ("periodic-points.json", "periodic-points --beta 2 --n 5 --target shift", 0),
    ("gaps.json", "gaps --beta 13/10", 2),
    ("verify.json", "verify --beta golden --order 16", 0),
    ("plot.svg", "plot --beta 5/2 --iterate 3", 0),
    # algebraic bases, whose printed numbers come from refinement decisions
    ("gaps-gamma3.json", "gaps --beta gamma:3", 0),
    ("gaps-x7.json", "gaps --poly=-1,-1,0,0,0,0,0,1 --interval=1,2", 2),
    ("expand-quintic.json",
     "expand --poly=1,1,-1,-2,-2,1 --interval=2,3 --digits 64", 0),
]


@pytest.mark.parametrize("name, argv, code", COMMANDS,
                         ids=[c[0] for c in COMMANDS])
def test_readme_command_output(capsys, name, argv, code):
    assert main(argv.split()) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name, argv, code", COMMANDS,
                         ids=[c[0] for c in COMMANDS])
def test_output_ignores_a_deeper_run_before(capsys, name, argv, code):
    # the deeper run leaves its references and refined bases behind in the
    # process; the answer at the default horizon must not read them
    main(argv.split() + ["--horizon", "2048"])
    capsys.readouterr()
    assert main(argv.split()) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
