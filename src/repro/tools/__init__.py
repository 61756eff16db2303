"""Command-line tools: ``python -m repro.tools <command>``.

* ``simulate`` — run a named problem (channel / flue_pipe / cylinder)
  with either method, any decomposition, and save the fields;
* ``cluster`` — one simulated distributed run on the 1994 cluster,
  printing the §7-style measurement;
* ``--help`` lists the rest (scenarios, sweeps, the serve clients).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "main": "cli",
})

__all__ = ["main"]
