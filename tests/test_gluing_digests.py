"""The CLI's ``glue --json`` and ``verify --json`` output, byte for byte.

``gluing_digests.json`` was recorded by ``record_gluing_digests.py``; see
there for the gluings and for how to record it again after a deliberate
output change.
"""

import json

from record_gluing_digests import COMMANDS, PATH, digest


def test_outputs_match_the_recorded_digests():
    rows = json.loads(PATH.read_text())
    assert len(rows) == 153
    for row in rows:
        for command in COMMANDS:
            got = digest(command, row["gluing"])
            assert got == row[command], (
                f"{command} {row['gluing']} --json: [sha256, exit] {got} "
                f"differs from the recorded {row[command]}")
