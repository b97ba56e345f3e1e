"""Run the gradridge CLI with the per-layer tracer installed.

    python3 perfbench/traced_cli.py SPANS_JSON <gradridge CLI arguments...>

Writes the recorded spans to SPANS_JSON after the CLI returns and exits with
the CLI's exit code. The whole CLI call is one ``experiments.cli`` span, so
argument parsing and config loading count toward the experiments layer.
"""

import sys

from tracer import Tracer


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer().install()
    from gradridge import cli

    try:
        return tracer.call("experiments.cli", cli.main, (cli_args,), {})
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
