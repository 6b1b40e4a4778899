"""Set-up time in a fresh process: ``import orbitkit``, scenario parse,
family build and the LbRecord, up to the first claim.

Reads a job as JSON on stdin and prints the seconds on stdout.  The clock
starts before the first orbitkit import, so the import of numpy and scipy
that orbitkit pulls in is part of set-up; interpreter start-up is not.  The
benchmark's own modules are imported with the clock stopped, after orbitkit,
whose modules they reuse.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    job = json.load(sys.stdin)
    sys.path[:0] = [job["src"], job["bench"]]
    t0 = time.perf_counter()
    from orbitkit.cli import run_scenario
    from orbitkit.scenario import parse_scenario

    paused = time.perf_counter()
    from claims import build_library_family
    t1 = time.perf_counter()

    for i, entry in enumerate(job["items"]):
        if "header" in entry:
            run_scenario(parse_scenario(entry["header"]), Path(job["out"]) / f"setup-{i}")
        else:
            build_library_family(entry["item"])
    print(repr(paused - t0 + time.perf_counter() - t1))


if __name__ == "__main__":
    main()
