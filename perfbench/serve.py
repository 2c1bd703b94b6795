"""Launch ``repro`` (as ``python -m repro`` would), optionally traced.

Usage::

    python3 perfbench/serve.py [--spans FILE] serve shortest-path --port 0 ...

With ``--spans`` the layer entry points are wrapped before the CLI runs,
and the recorded spans are written to FILE when it returns.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
        import layertrace

        layertrace.install()
    from repro.cli import main as cli_main

    code = cli_main(argv)
    if spans is not None:
        layertrace.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
