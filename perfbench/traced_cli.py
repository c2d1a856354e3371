"""Run one crhomotopy CLI command with the layer tracing of tracing.py.

    python3 perfbench/traced_cli.py STATE_FILE RUN_ID CLI_ARGS...

The spans and counters are written to STATE_FILE when the command ends; the
exit code is the command's.  The audits_n5 workload starts this in place of
``python3 -m crhomotopy.cli`` for its traced pass.
"""

import json
import sys

from tracing import Tracer, install


def main(argv):
    state_path, run_id, *cli_args = argv
    from crhomotopy import cli

    tracer = Tracer(run_id)
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        with open(state_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.state(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
