"""Rewrite expected.json from what the commands of commands.txt output now.

    PYTHONPATH=src python tests/golden/regenerate.py

Run it only after an intended change of an output, and list each changed
digest with its reason in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import COMMANDS, GOLDEN, record  # noqa: E402


def main() -> None:
    entries = []
    for argv in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            entries.append(record(argv, Path(tmp)))
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    (GOLDEN / "expected.json").write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    main()
