"""Child processes of the e2e benchmark.

``launcher.py serve [--trace-dump PATH] <serve flags>`` starts the
allocation daemon through the real CLI wiring —
``repro.cli.main(["serve", "--port", "0", ...])`` — so the benchmark
measures what ``repro serve`` runs; the harness reads the port from the
"serving on" banner. Only with ``--trace-dump`` are the tracing shims
installed first; a control thread then answers ``dump`` on stdin by
writing the recorder to PATH (the daemon gets SIGKILLed for the
durability check, so "at exit" never comes) and printing ``dumped``.

``launcher.py setup <workload> <seed>`` is the offline set-up probe: a
fresh interpreter that imports the package, generates the workload's
inputs and prints ``ready`` — the harness times spawn to ``ready``.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def _control(recorder, path: str) -> None:
    for line in sys.stdin:
        if line.strip() == "dump":
            Path(path).write_text(json.dumps(recorder.dump()))
            print("dumped", flush=True)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        import workloads

        workloads.offline_inputs(args[0], int(args[1]))
        print("ready", flush=True)
        return 0
    if mode != "serve":
        print(f"unknown launcher mode {mode!r}", file=sys.stderr)
        return 2
    if args[:1] == ["--trace-dump"]:
        import shims

        recorder = shims.Recorder()
        shims.install(recorder)
        threading.Thread(target=_control, args=(recorder, args[1]),
                         daemon=True).start()
        args = args[2:]
    from repro.cli import main as cli_main

    return cli_main(["serve", "--port", "0", *args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
