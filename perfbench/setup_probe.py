"""Set-up cost of one fresh interpreter, printed in seconds on stdout.

    PYTHONPATH=src python3 perfbench/setup_probe.py RUN.ini

Times ``import dynheat``, ``load_config``, ``build_grid``,
``assemble_operator`` and one ``Propagator`` for the config's schedule.
"""

import time

_t0 = time.perf_counter()

import sys  # noqa: E402


def main(path):
    import dynheat
    cfg = dynheat.load_config(path)
    ops = dynheat.assemble_operator(dynheat.build_grid(cfg.domain(), **cfg.grid_args))
    dynheat.Propagator(ops, cfg.dt, cfg.scheme)
    print(repr(time.perf_counter() - _t0))


if __name__ == "__main__":
    main(sys.argv[1])
