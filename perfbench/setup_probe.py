"""Set-up time of one CLI-style call, measured in a fresh interpreter.

Prints the seconds from ``import crspectra`` until ``parse`` and one order-4
``Expression.jet`` at one point return, which every crspectra call pays
before its first task.  Usage: ``setup_probe.py <expression> <n>``.
"""

import sys
import time

start = time.perf_counter()
import crspectra  # noqa: E402  (the import is what is timed)

n = int(sys.argv[2])
expr = crspectra.parse(sys.argv[1], n)
expr.jet({}, [0.5 + 0.25j] * (n + 1), 4)
print(time.perf_counter() - start)
