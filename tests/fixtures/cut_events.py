"""Cut a run's event log just after loop 2's first `proof_attempt`, as a
kill inside loop 2 leaves it.

    PYTHONPATH=src python tests/fixtures/cut_events.py RUN_DIR/events.jsonl
"""
import sys

from cpl.core import read_json_lines, write_file

path = sys.argv[1]
end = next(
    end
    for event, end in read_json_lines(path, with_ends=True)
    if event["kind"] == "proof_attempt" and event["payload"]["loop"] == 2
)
write_file(path, b"", at=end)
