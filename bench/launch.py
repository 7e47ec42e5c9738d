"""One benchmark operation: a fresh interpreter runs one CLI subcommand.

    python3 bench/launch.py RESULT_JSON TRACE PRESET [CLI ARGS...]

The parent (``run.py``) takes the monotonic clock just before starting this
process; ``ready`` below is the same clock once ``holonomy_forge`` is
imported and the preset is resolved, so their difference is the set-up
time.  ``wall_s`` spans ``cli.main`` from parsed arguments to written
outputs.  With no CLI arguments the process stops after set-up (a set-up
probe).  With TRACE=1 the layer tracer is installed between the two.
Linux's ``time.monotonic`` is CLOCK_MONOTONIC, shared by all processes.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> None:
    result_path, trace, preset, cli_args = argv[0], argv[1] == "1", argv[2], argv[3:]
    from holonomy_forge import cli
    from holonomy_forge.presets import get_preset

    get_preset(preset)
    result: dict = {"ready": time.monotonic(), "program": cli.__file__}
    # Written now as well, so that a subcommand that crashes still shows
    # the parent that set-up succeeded.
    _write(result_path, result)
    if cli_args:
        tracer = None
        if trace:
            import layertrace

            tracer = layertrace.Tracer().install()
        cpu_start = time.process_time()
        start = time.monotonic()
        result["exit_code"] = cli.main(cli_args)
        result["wall_s"] = time.monotonic() - start
        result["cpu_s"] = time.process_time() - cpu_start
        if tracer is not None:
            result["layers"] = tracer.summary()
            result["notes"] = tracer.notes()
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import numpy
    import scipy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    _write(result_path, result)


def _write(path: str, result: dict) -> None:
    with open(path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
