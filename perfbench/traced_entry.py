"""Run one of the repository's tools with span recording installed.

Usage::

    python3 perfbench/traced_entry.py SPANS.json TOOL [TOOL ARGS...]

``TOOL`` is a module under ``repro.tools`` (``repro_served``,
``repro_opt``, ``repro_run``).  The tool's import is timed as the
``tools.startup.import`` span, the layer wrappers of
:mod:`perfbench.trace` are installed, and the tool's ``main`` runs with
the given arguments.  When it returns, every span is written to
``SPANS.json`` and the process exits with the tool's exit code.  Needs
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import importlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench.trace import TOOL_MAIN, Tracer, install  # noqa: E402


def main(argv) -> int:
    spans_path, tool, tool_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    frame = tracer.begin("tools.startup.import")
    module = importlib.import_module(f"repro.tools.{tool}")
    tracer.end(frame)
    install(tracer)
    code = 1
    try:
        if tool == "repro_served":
            # Request handlers open their own root spans.
            code = module.main(tool_argv)
        else:
            frame = tracer.begin(TOOL_MAIN)
            try:
                code = module.main(tool_argv)
            finally:
                tracer.end(frame)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
