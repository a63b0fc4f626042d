"""One set-up sample: import weakmodel.cli from src/ and run one warm-up job.

    python3 perfbench/probe.py OUT_DIR CLI_ARGS...

run.py times this whole process, interpreter start included, as setup_s.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weakmodel.cli import main  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:] + ["--out", sys.argv[1]])
sys.exit(code)
