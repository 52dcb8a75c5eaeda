"""The process entry point: the ``eivpcr`` console script, which
``python -m eivpcr.cli`` runs too. Its start-up rule is written here only.

Before numpy is imported, it sets ``OPENBLAS_NUM_THREADS=1``, overriding
the caller's value. OpenBLAS then starts on one thread and its idle worker
pool never starts; every command pins one thread anyway, so no output
changes.

It also keeps the cyclic garbage collector off while the imports run,
which spares the young collections they would trigger. Then it moves every
object alive, some 30K with numpy, to the permanent generation
(``gc.freeze()``) and turns the collector back on. The command runs with
the collector, but neither its collections nor the full collections at
interpreter shutdown walk the import-time heap, which lives until the
process ends. This saves about 30-45 ms of CPU per command on a 2-vCPU
x86-64 machine.

Nothing else applies the rule: importing :mod:`eivpcr.cli` as a library or
calling its ``main()`` in-process leaves the environment and the collector
as the caller had them. This module imports no numpy.
"""
import gc
import os


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    gc.disable()
    from .cli import main as cli_main

    gc.freeze()
    gc.enable()
    return cli_main()
