"""Run `meterwatch` with span wrappers installed; spans are written at exit.

Usage: PERFBENCH_SPANS=<file> PERFBENCH_OP=<op id> python3 perfbench/traced_main.py <meterwatch args>
"""

import time

LAUNCHED = time.time()


def main() -> None:
    import atexit
    import os
    import sys

    import tracing
    from meterwatch import cli

    rec = tracing.Recorder(op=os.environ.get("PERFBENCH_OP", ""))
    tracing.install(rec)
    atexit.register(rec.dump, os.environ["PERFBENCH_SPANS"])
    with rec.span("cli.main", launched=LAUNCHED, entered=time.time()):
        cli.main(args=sys.argv[1:], prog_name="meterwatch")


if __name__ == "__main__":
    main()
