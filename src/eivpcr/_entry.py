"""The ``eivpcr`` console script, and the start-up rule of both process
entry points (this script and ``python -m eivpcr.cli``).

A process that runs one command and exits gains little from the cyclic
garbage collector walking the objects its imports leave behind, some 30K
of them with numpy, which live until the process ends. So an entry
point calls :func:`_start_process` before numpy is imported and
:func:`_imports_done` once its imports have finished:

- OpenBLAS starts on one thread (:func:`eivpcr._blas._start_single_threaded`),
  so its idle worker pool never starts.
- The collector is off while the imports run, which spares the young
  collections they would trigger. Then every object alive is moved to the
  permanent generation (``gc.freeze()``) and the collector is turned back
  on: the command runs with it, but neither its collections nor the
  full collections at interpreter shutdown walk the import-time heap.
  This saves about 30-45 ms of CPU per command on a 2-vCPU x86-64 machine.

Nothing else calls them: importing :mod:`eivpcr.cli` as a library or
calling its ``main()`` in-process leaves the environment and the collector
as the caller had them. This module imports no numpy.
"""
import gc

from ._blas import _start_single_threaded


def _start_process():
    """First step of a process entry point, before numpy is imported."""
    _start_single_threaded()
    gc.disable()


def _imports_done():
    """Step of a process entry point once its imports have finished."""
    gc.freeze()
    gc.enable()


def main() -> int:
    _start_process()
    from .cli import main as cli_main

    _imports_done()
    return cli_main()
