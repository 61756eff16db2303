"""Canonical content hashing of one simulation request.

The result cache's contract is *physical identity*: two submissions
whose ``(spec, settings, seed)`` describe the same computation must map
to the same fingerprint no matter how they were spelled — field order
in a JSON body, tuples vs lists, defaults left implicit vs written out.
Conversely any knob that can change the produced fields (grid, physical
parameters, step count, diagnostics period, fault plan) must change the
fingerprint.

Operational knobs deliberately do **not** participate: transport,
timeouts, checkpoint cadence, tracing, synthetic step delays and host
lists change *how* a run executes, not *what* it
computes — the repo's integration tests hold the runtimes bit-for-bit
equal across all of them.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["PHYSICAL_KNOBS", "canonical_request", "fingerprint"]

#: The settings knobs that can change the produced fields.  Everything
#: else in :class:`~repro.distrib.RunSettings` is operational and is
#: excluded from the cache key (see module docstring).
PHYSICAL_KNOBS = ("steps", "diag_every", "fault_plan")

#: Bump when the canonical form itself changes, so stale cache entries
#: from an older layout can never satisfy a new request.
_CANON_VERSION = 4


def _canonical_spec(spec) -> dict:
    """Normalize a ProblemSpec (or a dict of its fields) to one dict.

    Round-tripping through :class:`~repro.distrib.ProblemSpec` applies
    the class' own normalization (tuples, defaulted fields), and its
    ``to_json`` sorts keys — so two dicts that build the same problem
    serialize identically.
    """
    from ..distrib.spec import ProblemSpec

    if not isinstance(spec, ProblemSpec):
        spec = ProblemSpec.from_json(json.dumps(dict(spec)))
    return json.loads(spec.to_json())


def _canonical_settings(settings) -> dict:
    """Project settings onto the physical knobs, defaults filled in.

    ``settings`` may be a :class:`~repro.distrib.RunSettings`, a plain
    dict of knob overrides (the gateway's JSON body), or ``None``.
    Unknown keys in a dict are rejected loudly — a typo'd physical knob
    silently ignored would alias two different computations.
    """
    from dataclasses import fields

    from ..distrib.orchestrator import RunSettings

    if settings is None:
        settings = {}
    if isinstance(settings, dict):
        known = {f.name for f in fields(RunSettings)}
        unknown = set(settings) - known
        if unknown:
            raise ValueError(
                f"unknown settings knob(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        base = RunSettings(steps=int(settings.get("steps", 0)))
        out = {
            name: settings.get(name, getattr(base, name))
            for name in PHYSICAL_KNOBS
        }
    else:
        out = {name: getattr(settings, name) for name in PHYSICAL_KNOBS}
    # JSON round-trip flattens tuples to lists so spelling cannot leak
    # into the hash.
    return json.loads(json.dumps(out))


def canonical_request(spec, settings=None, seed: int = 0) -> dict:
    """The canonical ``(spec, settings, seed)`` form the cache hashes."""
    return {
        "version": _CANON_VERSION,
        "spec": _canonical_spec(spec),
        "settings": _canonical_settings(settings),
        "seed": int(seed),
    }


def fingerprint(spec, settings=None, seed: int = 0) -> str:
    """SHA-256 hex digest of the canonical request."""
    canon = canonical_request(spec, settings, seed)
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
