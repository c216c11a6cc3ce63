"""Run one ``fracdrift`` command the way the console script does, timed.

    python3 child.py RESULT.json [--trace] -- <fracdrift arguments>

The parent starts this script in a fresh interpreter with the package's
``src`` on ``PYTHONPATH``.  It writes ``RESULT.json`` with the monotonic
times at which ``main()`` was ready (imports done), entered and returned,
and exits with ``main()``'s return code.  With ``--trace`` it first wraps
the package's layer functions (see ``layers.TARGETS``) and adds the spans.
"""

import json
import sys
import time


def run(argv: list[str]) -> int:
    sep = argv.index("--")
    result_path, options, cli_args = argv[0], argv[1:sep], argv[sep + 1:]

    from fracdrift import cli

    record = {"ready": time.monotonic()}
    recorder = None
    if "--trace" in options:
        from layers import TARGETS
        from spans import Recorder

        modules = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
                   if name.startswith("fracdrift.")}
        recorder = Recorder()
        recorder.install(TARGETS, modules)
    record["main_start"] = time.monotonic()
    try:
        code = cli.main(cli_args)
    finally:
        record["main_end"] = time.monotonic()
        if recorder is not None:
            record.update(recorder.dump())
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
