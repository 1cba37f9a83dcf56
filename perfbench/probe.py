"""Known-defect probes: CLI calls that a correct netmatch answers with exit 0.

The probes live apart from the workloads so that a defect neither fails
the run nor changes the measured operation mix; their outcomes are
printed with every report.  One of them makes ``estimate_error`` shift 1
left by about 10^12 bits, which ``cli.run`` does not catch, so the address
space is capped before anything is imported: the allocation then fails at
once with MemoryError on any host and under any overcommit setting.

    python3 perfbench/probe.py PROBES.json

PROBES.json maps a probe name to its CLI arguments.  Prints one JSON
object mapping each name to {"outcome": "exit", "exit": code} or
{"outcome": "raised", "error": exception name}, plus "seconds".
"""

import resource

ADDRESS_SPACE = 2 << 30
resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import netmatch.cli  # noqa: E402


def run(argv: list) -> dict:
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            outcome = {"outcome": "exit", "exit": netmatch.cli.run(argv)}
    except Exception as exc:  # a probed defect may escape cli.run
        outcome = {"outcome": "raised", "error": type(exc).__name__}
    outcome["seconds"] = time.perf_counter() - start
    return outcome


if __name__ == "__main__":
    probes = json.loads(Path(sys.argv[1]).read_text())
    print(json.dumps({name: run(argv) for name, argv in probes.items()}))
