"""Command-line front end.

Four subcommands, one JSON config each:

    gradridge curve    --config cfg.json [--out DIR] [--seed N] [--threads N]
    gradridge audit    --config cfg.json ...
    gradridge spectrum --config cfg.json ...
    gradridge sobol    --config cfg.json ...

Exit codes: 0 success, 2 configuration problems (including a config file or
output path that cannot be read or written), 3 numerical failures and a run
that runs out of memory (a MemoryError, reported in one line).
Each warning prints as one stderr line, ``warning: <Category>: <message>``.
``--threads N`` changes wall time only; outputs are byte-identical for any
worker count. The workers, the calling thread and N - 1 helper threads, take
whole blocks of 512 samples: the gradient samples of ``estimate_h`` (which
the ``sobol`` derivative bounds use too), the validation samples of
``validate_error`` and the blocks of the Sobol' base rows. A loop of one
block starts no thread, so a run with k <= 512 gradient samples computes H
on one thread whatever N is; that includes the paper-scale ``full_field``
curve at k = 64, whose samples cost about 70 ms each at grid 32. More
workers pay where there are several blocks and a chunk of work costs half a
millisecond or more, as with ``point_pair`` at grid 32: ``estimate_h`` on
k = 2048 samples took 2.51 and 2.67 s on one thread and 1.99 and 1.59 s on
two (2 cores). At grid 12 a second worker costs time: a grid-12 sample's
work is mostly the banded LAPACK calls, and scipy's f2py wrappers of those
hold the GIL, so two workers run them one at a time.

The process entry (``python -m gradridge`` and the ``gradridge`` script, both
``gradridge.__main__:main``) sets ``OPENBLAS_NUM_THREADS=1`` before numpy
loads, so the OpenBLAS copies that numpy and scipy bundle load on one thread
and start no idle worker. ``main`` here keeps a runtime pin for in-process
callers, which load numpy first: every command runs with each copy set to one
thread, and restores their thread counts when it returns. scipy's compiled
kernels are loaded only when a run needs them (an eigendecomposition of a
matrix that is not diagonal, or the pde model), all by ``linalg``, which
reads them from scipy's extension modules and imports no scipy package. So
scipy's copy usually loads inside the run; ``linalg`` pins it as it loads,
and it is set back to the count it loaded with. So the artifacts
do not depend on ``OPENBLAS_NUM_THREADS``, and on these small dense kernels
one thread is also the fastest. Importing this module changes neither BLAS
nor the environment, and the library API leaves BLAS as the caller set it: a
library caller who wants the CLI's digits sets ``OPENBLAS_NUM_THREADS=1``.
Other BLAS vendors (MKL, Accelerate) are not pinned.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from ._blas import one_blas_thread
from .errors import ConfigError, GradRidgeError, NonDiagonalCovariance
from .experiments import (
    resolve_config,
    run_error_curve,
    run_projector_audit,
    run_sobol,
    run_spectrum,
)

_RUNNERS = {
    "curve": run_error_curve,
    "audit": run_projector_audit,
    "spectrum": run_spectrum,
    "sobol": run_sobol,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gradridge",
        description="Gradient-based ridge approximation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("curve", "error bounds and validated ridge errors per rank"),
        ("audit", "projector quality across gradient sample budgets"),
        ("spectrum", "eigenvalue tables and leading mode exports"),
        ("sobol", "Sobol' indices with derivative-based bounds"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--out", default=".", help="output directory (default: cwd)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--threads", type=int, default=1,
                         help="worker threads for the gradient, validation and "
                              "Sobol' samples, which take whole 512-sample blocks, so "
                              "a run of one block (k <= 512) starts none; pays when "
                              "there are several blocks of samples that cost "
                              "milliseconds (pde grid 32), and costs time at grid 12; "
                              "never changes results")
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings(), one_blas_thread():
        warnings.showwarning = _show_warning
        return _run(args)


def _run(args):
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        cfg = resolve_config(raw, seed_override=args.seed)
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON ({exc})", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, RecursionError, ConfigError) as exc:
        # RecursionError: json gives up on arrays or objects nested too deep
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        path = _RUNNERS[args.command](cfg, args.out, threads=args.threads)
    except (NonDiagonalCovariance, ConfigError, OSError) as exc:
        # OSError: --out or an artifact path that cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GradRidgeError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: MemoryError: {' '.join(str(exc).split())}", file=sys.stderr)
        return 3
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
