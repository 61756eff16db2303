"""Source-level conventions the runtimes must keep.

Deadlines and durations use ``time.monotonic()`` / ``time.perf_counter``
everywhere — a wall clock stepped by NTP mid-run would corrupt timeouts
and span durations.  ``time.time()`` is allowed only to *record* wall
time (log stamps, diagnostics records, the tracer's alignment origin),
and every such line must say so with a ``wall`` marker so this lint can
tell intent from accident.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: packages whose hot paths and protocols must stay monotonic
MONOTONIC_PACKAGES = ("core", "net", "distrib", "serve")


def _py_files():
    for pkg in MONOTONIC_PACKAGES:
        yield from (SRC / pkg).rglob("*.py")


def test_no_bare_wall_clock_in_runtimes():
    """Every ``time.time()`` in core/net/distrib/serve carries a wall
    marker."""
    offenders = []
    for path in _py_files():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "time.time()" in line and "wall" not in line:
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: "
                                 f"{line.strip()}")
    assert not offenders, (
        "bare time.time() in a runtime package — use time.monotonic() "
        "for deadlines, or mark the line as a wall-clock record "
        "(wall_time field / '# wall stamp'):\n" + "\n".join(offenders)
    )


def test_no_datetime_now_in_runtimes():
    """``datetime.now()`` is the same wall clock in disguise."""
    pattern = re.compile(r"datetime\.(?:datetime\.)?now\(")
    offenders = []
    for path in _py_files():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line) and "wall" not in line:
                offenders.append(f"{path.relative_to(SRC)}:{lineno}")
    assert not offenders, (
        "datetime.now() in a runtime package:\n" + "\n".join(offenders)
    )
