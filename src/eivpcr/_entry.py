"""The ``eivpcr`` console script.

It imports no numpy before :func:`eivpcr._blas._start_single_threaded` has
run, so OpenBLAS starts on one thread, as under ``python -m eivpcr.cli``.
"""
from ._blas import _start_single_threaded


def main() -> int:
    _start_single_threaded()
    from .cli import main as cli_main

    return cli_main()
