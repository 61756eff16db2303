"""Serializable problem specification shared by all distributed programs.

The paper's parallel processes "execute the same program on different
data": every workstation runs the identical solver binary, parameterized
by a dump file.  Here the equivalent of the compiled-in problem setup is
a JSON-serializable :class:`ProblemSpec` that the initialization,
decomposition, submit and worker programs all reconstruct identically —
geometry and boundary conditions are specified by *name + parameters*
(not by code objects) so a worker restarted on a different host after a
migration rebuilds bit-identical boundary conditions.

Spec versions
-------------
* **v1** — ``method`` is the string ``"fd"`` or ``"lb"``; every
  subregion runs that method.  The JSON form is unchanged from the
  original design (no ``spec_version`` key), so checkpoints, serve
  cache entries and job directories written before hybrid runs existed
  round-trip byte-identically and keep their content hashes.
* **v2** — ``method`` is a region map ``{"default": "fd", "regions":
  [{"method": "lb", "box": [[lo...], [hi...]]}, ...]}`` assigning a
  method per subregion: a block runs the method of the *last* region
  whose half-open global-node box fully contains it, else the default.
  A region that only partially overlaps some block is a loud error —
  seams live on block faces, never inside a block.  The JSON form
  carries an explicit ``"spec_version": 2``; unknown versions raise.

Maps that select a single method everywhere (no regions, or regions
that all repeat the default) normalize down to the plain v1 string, so
spelling variants of the same problem hash identically in the serve
layer.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..core.decomposition import Decomposition
from ..fluids.boundary import GlobalBox, PressureOutlet, VelocityInlet
from ..fluids.fd import FDMethod
from ..fluids.geometry import (
    channel_geometry,
    cylinder_channel,
    flue_pipe,
    lid_cavity,
)
from ..fluids.lbm import LBMethod
from ..fluids.params import FluidParams

__all__ = ["ProblemSpec", "METHOD_CLASSES"]

#: canonical method name -> implementation
METHOD_CLASSES = {"fd": FDMethod, "lb": LBMethod}

#: spec versions this build can read
KNOWN_SPEC_VERSIONS = (1, 2)


def _normalize_method(method, grid_shape) -> str | dict[str, Any]:
    """Validate and canonicalize the ``method`` field (docstring above)."""
    if isinstance(method, str):
        if method not in METHOD_CLASSES:
            raise ValueError(f"unknown method {method!r}")
        return method
    if not isinstance(method, dict):
        raise ValueError(
            f"method must be a string or a region map, got {type(method).__name__}"
        )
    unknown = set(method) - {"default", "regions"}
    if unknown:
        raise ValueError(f"unknown method-map keys {sorted(unknown)}")
    default = method.get("default")
    if default not in METHOD_CLASSES:
        raise ValueError(f"unknown default method {default!r}")
    ndim = len(grid_shape)
    regions: list[dict[str, Any]] = []
    for reg in method.get("regions", ()):
        if not isinstance(reg, dict) or set(reg) - {"method", "box"}:
            raise ValueError(f"malformed method region {reg!r}")
        m = reg.get("method")
        if m not in METHOD_CLASSES:
            raise ValueError(f"unknown region method {m!r}")
        box = reg.get("box")
        if (
            not isinstance(box, (list, tuple))
            or len(box) != 2
            or any(len(side) != ndim for side in box)
        ):
            raise ValueError(
                f"region box must be [[lo...], [hi...]] with {ndim} "
                f"components each, got {box!r}"
            )
        lo = [int(x) for x in box[0]]
        hi = [int(x) for x in box[1]]
        for d in range(ndim):
            if not (0 <= lo[d] < hi[d] <= grid_shape[d]):
                raise ValueError(
                    f"region box {box!r} outside grid {tuple(grid_shape)} "
                    f"(half-open global node coordinates)"
                )
        # A region repeating the default is a no-op *unless* it
        # overlaps an earlier region it must override (last wins).
        overlaps_earlier = any(
            all(r["box"][0][d] < hi[d] and lo[d] < r["box"][1][d]
                for d in range(ndim))
            for r in regions
        )
        if m != default or overlaps_earlier:
            regions.append({"box": [lo, hi], "method": m})
    if not regions:
        return default  # single-method map -> canonical v1 string
    return {"default": default, "regions": regions}


@dataclass(frozen=True)
class ProblemSpec:
    """Everything needed to reconstruct the problem on any host.

    Parameters
    ----------
    method:
        ``"fd"`` / ``"lb"``, or a per-region method map (module
        docstring); normalized at construction.
    grid_shape:
        Global grid nodes per axis (also fixes the dimensionality).
    blocks:
        Decomposition block counts per axis.
    periodic:
        Per-axis periodicity.
    params:
        Keyword arguments of :class:`~repro.fluids.FluidParams`.
    geometry:
        ``{"kind": "open"}`` (no walls),
        ``{"kind": "channel", "wall_nodes": int}``,
        ``{"kind": "flue_pipe", "variant": ..., "jet_speed": ...,
        "ramp_steps": ...}``,
        ``{"kind": "cavity", "lid_speed": ..., "wall_nodes": ...,
        "ramp_steps": ...}`` (lid-driven cavity) or
        ``{"kind": "cylinder", "radius_frac": ..., "center_frac": ...,
        "wall_nodes": ...}`` (cylinder in a channel).
    weights:
        Optional per-axis block weights for a non-uniform decomposition
        (see :class:`~repro.core.decomposition.Decomposition`); the
        rebalance coordinator rewrites this field with the adopted
        integer shares so restarted workers re-cut identically.
    init:
        Optional named initial condition, ``{"kind": ..., **options}``
        with the kinds of :func:`repro.distrib.initial_fields`
        (``"standing_wave"``, ``"random"``, ``"taylor_green"``,
        ``"uniform_flow"``); ``None``
        means start from rest.  Part of the spec — and hence of serve
        content hashes — because the initial state determines the
        solution.  Omitted from the JSON form when ``None`` so
        pre-existing v1 artifacts and their hashes are unchanged.
    """

    method: str | dict[str, Any]
    grid_shape: tuple[int, ...]
    blocks: tuple[int, ...]
    periodic: tuple[bool, ...]
    params: dict[str, Any] = field(default_factory=dict)
    geometry: dict[str, Any] = field(default_factory=lambda: {"kind": "open"})
    weights: tuple[tuple[float, ...] | None, ...] | None = None
    init: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "method", _normalize_method(self.method, self.grid_shape)
        )
        kind = self.geometry.get("kind", "open")
        if kind not in ("open", "channel", "flue_pipe", "cavity", "cylinder"):
            raise ValueError(f"unknown geometry kind {kind!r}")
        if "center_frac" in self.geometry:
            geometry = dict(self.geometry)
            geometry["center_frac"] = tuple(geometry["center_frac"])
            object.__setattr__(self, "geometry", geometry)
        if self.init is not None:
            if not isinstance(self.init, dict) or "kind" not in self.init:
                raise ValueError(
                    f"init must be a dict with a 'kind' key, got {self.init!r}"
                )
            if self.init["kind"] not in (
                "rest", "standing_wave", "random", "taylor_green",
                "uniform_flow",
            ):
                raise ValueError(
                    f"unknown initial condition {self.init['kind']!r}"
                )
        # Normalize JSON artifacts so a spec round-trips to an equal
        # value (lists decode where tuples were encoded) — into a fresh
        # dict: the caller's params mapping is never mutated.
        if "gravity" in self.params:
            params = dict(self.params)
            params["gravity"] = tuple(params["gravity"])
            object.__setattr__(self, "params", params)
        if self.weights is not None:
            norm = tuple(
                None if w is None else tuple(float(x) for x in w)
                for w in self.weights
            )
            object.__setattr__(self, "weights", norm)

    @property
    def ndim(self) -> int:
        return len(self.grid_shape)

    # ------------------------------------------------------------------
    # method map
    # ------------------------------------------------------------------
    @property
    def spec_version(self) -> int:
        """1 for single-method string specs, 2 for region-map specs."""
        return 2 if isinstance(self.method, dict) else 1

    @property
    def is_hybrid(self) -> bool:
        """True when more than one method runs in this problem."""
        return isinstance(self.method, dict)

    @property
    def method_names(self) -> tuple[str, ...]:
        """Sorted distinct methods this problem runs."""
        if not self.is_hybrid:
            return (self.method,)
        names = {self.method["default"]}
        names.update(r["method"] for r in self.method["regions"])
        return tuple(sorted(names))

    @property
    def pad(self) -> int:
        """Ghost width of the run: the widest any involved method needs."""
        return max(METHOD_CLASSES[m].pad for m in self.method_names)

    def methods_by_rank(self) -> tuple[str, ...]:
        """Canonical method name per dense active rank.

        Resolves the region map against the block grid: a block takes
        the method of the last region that fully contains it.  A region
        that cuts through a block raises — method seams must coincide
        with subregion boundaries, where the ghost-exchange converters
        operate.
        """
        decomp = self.build_decomposition()
        blocks = decomp.active_blocks()
        if not self.is_hybrid:
            return (self.method,) * len(blocks)
        out = []
        for blk in blocks:
            name = self.method["default"]
            for reg in self.method["regions"]:
                lo, hi = reg["box"]
                inside = all(
                    lo[d] <= blk.lo[d] and blk.hi[d] <= hi[d]
                    for d in range(self.ndim)
                )
                outside = any(
                    blk.hi[d] <= lo[d] or hi[d] <= blk.lo[d]
                    for d in range(self.ndim)
                )
                if inside:
                    name = reg["method"]
                elif not outside:
                    raise ValueError(
                        f"method region box {reg['box']} cuts through "
                        f"block {blk.index} [{blk.lo}, {blk.hi}); align "
                        "region boundaries with block boundaries"
                    )
            out.append(name)
        return tuple(out)

    # ------------------------------------------------------------------
    # reconstruction
    # ------------------------------------------------------------------
    def build_params(self) -> FluidParams:
        """Reconstruct the FluidParams of this problem."""
        kw = dict(self.params)
        kw.setdefault("gravity", (0.0,) * self.ndim)
        kw["gravity"] = tuple(kw["gravity"])
        return FluidParams(**kw)

    def build_geometry(
        self,
    ) -> tuple[np.ndarray | None, list[VelocityInlet], list[PressureOutlet]]:
        """(solid mask, inlets, outlets) for this problem."""
        g = dict(self.geometry)
        kind = g.pop("kind", "open")
        if kind == "open":
            return None, [], []
        if kind == "channel":
            solid = channel_geometry(
                self.grid_shape, wall_nodes=g.get("wall_nodes", 1)
            )
            return solid, [], []
        if kind == "flue_pipe":
            if self.ndim != 2:
                raise ValueError("flue_pipe geometry is two-dimensional")
            setup = flue_pipe(self.grid_shape, **g)  # type: ignore[arg-type]
            return setup.solid, [setup.inlet], [setup.outlet]
        if kind == "cavity":
            if self.ndim != 2:
                raise ValueError("cavity geometry is two-dimensional")
            solid, lid = lid_cavity(self.grid_shape, **g)  # type: ignore[arg-type]
            return solid, [lid], []
        if kind == "cylinder":
            if self.ndim != 2:
                raise ValueError("cylinder geometry is two-dimensional")
            solid = cylinder_channel(self.grid_shape, **g)  # type: ignore[arg-type]
            return solid, [], []
        raise ValueError(f"unknown geometry kind {kind!r}")

    def build_methods(self) -> tuple:
        """One method instance per dense active rank.

        The single construction path for every runtime
        (:meth:`build_simulation`, workers, decomposer): one instance
        per *method kind* (methods keep no per-subregion state — it
        lives on the subregions), shared across the ranks running it,
        built with the run-wide ghost width :attr:`pad` so mixed-pad
        methods share one exchange plan.
        """
        params = self.build_params()
        _, inlets, outlets = self.build_geometry()
        pad = self.pad
        built = {
            name: METHOD_CLASSES[name](
                params, self.ndim, inlets=inlets, outlets=outlets,
                pad=None if METHOD_CLASSES[name].pad == pad else pad,
            )
            for name in self.method_names
        }
        return tuple(built[name] for name in self.methods_by_rank())

    def build_method(self):
        """Reconstruct the single method of a v1 (non-hybrid) spec.

        Kept for single-method callers; hybrid specs have no single
        method and raise — use :meth:`build_methods`.
        """
        if self.is_hybrid:
            raise ValueError(
                "hybrid spec has no single method; use build_methods()"
            )
        params = self.build_params()
        _, inlets, outlets = self.build_geometry()
        return METHOD_CLASSES[self.method](
            params, self.ndim, inlets=inlets, outlets=outlets,
        )

    def build_decomposition(self) -> Decomposition:
        """Reconstruct the decomposition (inactive blocks included)."""
        solid, _, _ = self.build_geometry()
        return Decomposition(
            self.grid_shape,
            self.blocks,
            periodic=self.periodic,
            solid=solid,
            weights=self.weights,
        )

    def build_simulation(
        self,
        fields: dict[str, np.ndarray] | None = None,
        *,
        threaded: bool = False,
        tracer=None,
        delay_fn=None,
    ):
        """The in-process runner of this problem.

        The one path from a spec to a :class:`~repro.core.Simulation`
        (or, with ``threaded=True``, a
        :class:`~repro.core.ThreadedSimulation` whose ``delay_fn`` adds
        per-rank synthetic load): geometry, decomposition, per-rank
        methods and, on a hybrid spec, the seam converters.  ``fields``
        defaults to the spec's own initial condition; ``tracer`` to no
        tracing.  The runner modules are imported here, not at module
        load, so a rank worker reading its spec never loads them.
        """
        if fields is None:
            from .initprog import initial_fields

            fields = initial_fields(self, None)
        if tracer is None:
            from ..trace import NULL_TRACER

            tracer = NULL_TRACER
        solid, _, _ = self.build_geometry()
        decomp = self.build_decomposition()
        methods = list(self.build_methods())
        converters = None
        if self.is_hybrid:
            from ..fluids.coupling import build_converters

            converters = build_converters(decomp, methods)
        if threaded:
            from ..core.threaded import ThreadedSimulation

            return ThreadedSimulation(
                methods, decomp, fields, solid, tracer=tracer,
                converters=converters, delay_fn=delay_fn,
            )
        from ..core.runner import Simulation

        return Simulation(
            methods, decomp, fields, solid, tracer=tracer,
            converters=converters,
        )

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize to canonical JSON.

        v1 specs emit the exact historical form (no ``spec_version``
        key) so on-disk artifacts and serve-layer content hashes from
        before the hybrid redesign are stable; v2 specs carry an
        explicit ``"spec_version": 2``.
        """
        raw = asdict(self)
        if self.spec_version != 1:
            raw["spec_version"] = self.spec_version
        if raw.get("init") is None:
            # keep the historical v1 field set: pre-init artifacts and
            # serve content hashes must not change
            raw.pop("init", None)
        return json.dumps(raw, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProblemSpec":
        raw = json.loads(text)
        method = raw["method"]
        inferred = 2 if isinstance(method, dict) else 1
        version = raw.get("spec_version", inferred)
        if version not in KNOWN_SPEC_VERSIONS:
            raise ValueError(
                f"unknown spec_version {version!r}; this build reads "
                f"versions {KNOWN_SPEC_VERSIONS}"
            )
        if version == 1 and inferred == 2:
            raise ValueError(
                "spec_version 1 cannot carry a method map; use "
                "spec_version 2"
            )
        weights = raw.get("weights")
        if weights is not None:
            weights = tuple(
                None if w is None else tuple(w) for w in weights
            )
        return cls(
            method=method,
            grid_shape=tuple(raw["grid_shape"]),
            blocks=tuple(raw["blocks"]),
            periodic=tuple(bool(p) for p in raw["periodic"]),
            params=dict(raw.get("params", {})),
            geometry=dict(raw.get("geometry", {"kind": "open"})),
            weights=weights,
            init=raw.get("init"),
        )

    def save(self, path: str | Path) -> None:
        """Write the spec to a JSON file."""
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "ProblemSpec":
        return cls.from_json(Path(path).read_text())
