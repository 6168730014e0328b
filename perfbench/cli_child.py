"""Run one congwidth CLI command with span wrappers installed.

    python3 perfbench/cli_child.py SPANS.json census --group SL3,F2 ...

The traced run starts this in place of `python3 -m congwidth.cli`, so the
spans time the same cold CLI job a user runs.  The spans are written to
SPANS.json when the command returns; the exit status is the command's.
"""

import json
import sys
from pathlib import Path

import tracing

import congwidth.cli


def main() -> int:
    rec = tracing.Recorder()
    with tracing.patched(tracing.cli_wrappers(rec)):
        status = congwidth.cli.main(sys.argv[2:])
    Path(sys.argv[1]).write_text(json.dumps(rec.spans))
    return status


if __name__ == "__main__":
    sys.exit(main())
