"""Process entry: ``python -m gradridge`` and the ``gradridge`` console script.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, as its library loads, and starts
its worker threads then. ``main`` sets it to 1 before it imports the CLI, so
the OpenBLAS copies of numpy and scipy load on one thread and start no idle
worker. The pin in ``cli.main`` stays for callers that load numpy first.
"""

import os
import sys


def main():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
