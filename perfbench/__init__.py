"""User-path benchmark for the PLD reproduction.

Drives the program only through its public surfaces — the ``pld`` CLI
as subprocesses and a ``pld serve`` daemon over TCP — and times what a
user waits for.  ``python3 perfbench/run.py --help`` lists the modes;
``perfbench/README.md`` says why each workload and metric exists.
"""
