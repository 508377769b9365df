"""``python -m benchmarks.ladder``: put the repository on the path, then run."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# The program under test is imported from this checkout's ``src``.
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks.ladder: no repro package under {ROOT / 'src'}")

from benchmarks.ladder.cli import main  # noqa: E402

sys.exit(main())
