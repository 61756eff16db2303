"""Scenario contracts: parameter schemas, scored observables, registry.

The paper validates on exactly two flows (Poiseuille and the flue-pipe
jet, figs. 1-2); this package grows that into a library of named,
versioned scenarios.  A :class:`Scenario` is a *declarative spec
builder* — geometry, boundary conditions, forcing and initial state
expressed as a :class:`~repro.distrib.ProblemSpec` plus run settings —
paired with **scored expected observables**: :meth:`Scenario.score`
takes the run's :class:`~repro.facade.RunResult` and compares its final
fields and diagnostics time series against analytic or literature
references (parabolic profiles, Hou et al. vortex centers, quarter-wave
tones, conservation bounds) — or, for the paper's efficiency figures,
records the simulated cluster's f, speedup and time per step — and
returns a :class:`Score` of pass/fail plus numeric residuals.

Because a scenario case is *pure data* ``(spec, settings, seed)``, it
routes through every backend — including the :mod:`repro.serve` job
layer, where identical cases hit the content-hash result cache — and
scoring needs nothing beyond what the service returns: the final
fields and the diagnostics stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..distrib import ProblemSpec

if TYPE_CHECKING:
    from ..facade import RunResult

__all__ = [
    "Param",
    "Case",
    "Score",
    "Scenario",
    "register",
    "get",
    "names",
    "all_scenarios",
]


@dataclass(frozen=True)
class Param:
    """One knob of a scenario's parameter schema.

    ``lo``/``hi`` bound numeric values (inclusive); ``choices``
    enumerates categorical ones.  Both are validated loudly in
    :meth:`Scenario.resolve` so a sweep grid can't silently request a
    case the scenario was never calibrated for.
    """

    default: Any
    doc: str = ""
    lo: float | None = None
    hi: float | None = None
    choices: tuple | None = None

    def validate(self, name: str, value: Any) -> Any:
        if self.choices is not None and value not in self.choices:
            raise ValueError(
                f"param {name}={value!r} not in {self.choices}"
            )
        if isinstance(self.default, bool):
            return bool(value)
        if isinstance(self.default, int) and not isinstance(value, bool):
            value = int(value)
        elif isinstance(self.default, float):
            value = float(value)
        if self.lo is not None and value < self.lo:
            raise ValueError(f"param {name}={value} below minimum {self.lo}")
        if self.hi is not None and value > self.hi:
            raise ValueError(f"param {name}={value} above maximum {self.hi}")
        return value


@dataclass(frozen=True)
class Case:
    """A fully resolved, runnable instance of a scenario.

    ``settings`` holds *physical* run knobs (``steps``, ``diag_every``)
    destined for :class:`~repro.distrib.RunSettings`; with ``spec`` and
    ``seed`` they form exactly the content-hash identity of the serve
    layer, so two sweeps over the same grid share cached results.
    """

    spec: ProblemSpec
    settings: dict[str, Any] = field(default_factory=dict)
    seed: int = 0


@dataclass
class Score:
    """Outcome of scoring one run against a scenario's references.

    ``residuals`` are the measured numbers, ``bounds`` the documented
    tolerances they must stay under; a residual without a bound is
    recorded for the report but never gates.  ``passed`` is the single
    CI-facing verdict.
    """

    passed: bool
    residuals: dict[str, float] = field(default_factory=dict)
    bounds: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def check(
        cls,
        residuals: Mapping[str, float],
        bounds: Mapping[str, float],
        details: Mapping[str, Any] | None = None,
    ) -> "Score":
        """Gate every bounded residual; collect the violations."""
        failures = []
        for name, bound in bounds.items():
            value = residuals.get(name)
            if value is None or not np.isfinite(value):
                failures.append(f"{name}: missing or non-finite")
            elif value > bound:
                failures.append(f"{name}: {value:.4g} > {bound:g}")
        return cls(
            passed=not failures,
            residuals={k: float(v) for k, v in residuals.items()},
            bounds=dict(bounds),
            failures=failures,
            details=dict(details or {}),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "residuals": self.residuals,
            "bounds": self.bounds,
            "failures": self.failures,
            "details": self.details,
        }


def diag_series(
    diagnostics: Sequence[Any], name: str
) -> np.ndarray:
    """Extract one column from a diagnostics time series.

    Accepts both in-process :class:`~repro.distrib.DiagRecord` objects
    and the plain dicts that come back from ``diagnostics.jsonl`` /
    the serve stream — scoring must not care which executor ran the
    case.
    """
    out = []
    for rec in diagnostics:
        if isinstance(rec, Mapping):
            if name in rec:
                out.append(rec[name])
        else:
            value = getattr(rec, name, None)
            if value is not None:
                out.append(value)
    return np.asarray(out, dtype=float)


class Scenario:
    """Base class: subclasses define ``_build`` and ``_score``.

    Class attributes
    ----------------
    name, version:
        Registry identity.  Bump ``version`` whenever ``_build`` output
        or score references change — reports carry it so old sweep
        manifests are never compared against new physics.
    title, reference:
        One-line description and the literature/analytic reference the
        score checks against.
    params:
        The parameter schema (name -> :class:`Param`).
    """

    name: str = ""
    version: int = 1
    title: str = ""
    reference: str = ""
    params: dict[str, Param] = {}

    # ------------------------------------------------------------------
    def resolve(self, **overrides: Any) -> dict[str, Any]:
        """Defaults + overrides, validated against the schema."""
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise ValueError(
                f"scenario {self.name!r} has no params {sorted(unknown)}; "
                f"available: {sorted(self.params)}"
            )
        resolved = {k: p.default for k, p in self.params.items()}
        for k, v in overrides.items():
            resolved[k] = self.params[k].validate(k, v)
        return resolved

    def case(self, **overrides: Any) -> Case:
        """Build the runnable (spec, settings, seed) for these params."""
        return self._build(self.resolve(**overrides))

    def score(self, result: RunResult, **overrides: Any) -> Score:
        """Score a finished run of :meth:`case` with the same params.

        ``result`` is the :class:`~repro.facade.RunResult` of any
        backend: most scenarios read its ``fields`` and
        ``diagnostics``, the ``efficiency`` scenario its ``sim``.
        """
        return self._score(self.resolve(**overrides), result)

    def describe(self) -> dict[str, Any]:
        """Registry metadata for ``repro scenarios list/show``."""
        return {
            "name": self.name,
            "version": self.version,
            "title": self.title,
            "reference": self.reference,
            "params": {
                k: {
                    "default": p.default,
                    "doc": p.doc,
                    **({"lo": p.lo} if p.lo is not None else {}),
                    **({"hi": p.hi} if p.hi is not None else {}),
                    **({"choices": list(p.choices)}
                       if p.choices is not None else {}),
                }
                for k, p in self.params.items()
            },
        }

    # subclass hooks ---------------------------------------------------
    def _build(self, p: dict[str, Any]) -> Case:
        raise NotImplementedError

    def _score(self, p: dict[str, Any], result: RunResult) -> Score:
        raise NotImplementedError


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the global registry (duplicate names are loud)."""
    if not scenario.name:
        raise ValueError("scenario must set a name")
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(names())}"
        ) from None


def names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def all_scenarios() -> tuple[Scenario, ...]:
    return tuple(_REGISTRY[n] for n in names())
