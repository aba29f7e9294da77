"""The CLI's ``--json`` output on a fixed set of curves, byte for byte.

``cli_digests.json`` was recorded by ``record_cli_digests.py``; see there for
the curves and for how to record it again after a deliberate output change.
"""

import json

from record_cli_digests import COMMANDS, PATH, digest


def test_outputs_match_the_recorded_digests():
    rows = json.loads(PATH.read_text())
    assert len(rows) == 535
    for row in rows:
        for command in COMMANDS:
            got = digest(command, row["curve"])
            assert got == row[command], (
                f"{command} {','.join(map(str, row['curve']))} --json: "
                f"[sha256, exit] {got} differs from the recorded {row[command]}")
