"""Outside-in tracing of pullbacklab: wrappers around the public functions of
each module, installed and removed by the benchmark, that record one span per
call.

A span is a name, a start, an end and the index of the enclosing span.
Spans are kept in flat arrays in memory and summarised or saved once the
traced run is over.  The layer of a span is the part of its name before the
first dot; a layer's self time is the time its spans cover minus the time
their child spans cover, so the self times of all layers add up to the root
span.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from array import array

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from pullbacklab import attractor, cocycle, field, model, noise, solver

# public functions whose calls are spans, by module; a name that another
# module imports with ``from .x import name`` is patched there too
_SPANNED = {
    noise: ("sample_path", "flat_path", "refine", "shift", "z_factor", "z_series",
            "z_window_bounds", "sublinearity_report"),
    field: ("l2_norm", "h1_norm", "lp_norm", "tail_norm", "write_field_csv",
            "write_trajectory_csv"),
    model: ("spec_from_config", "check_hypotheses", "forcing_norm_sq",
            "forcing_memory_integral"),
    solver: ("step", "integrate", "integrate_deterministic", "final_state",
             "difference_history", "self_convergence", "spatial_convergence",
             "energy_audit"),
    cocycle: ("phi", "pullback_state", "verify_cocycle_property"),
    attractor: ("compute_equilibrium", "fit_decay_rate", "approximate_attractor",
                "hausdorff_semidistance", "upper_semicontinuity_sweep", "sweep_shrinks",
                "tail_profile", "truncation_rate", "truncation_diagnostic",
                "absorbing_radius", "window_regularity_report"),
}

# marching entry points and the number of states each advances per step;
# all take t_start, t_end and cfg
_MARCHES = {
    "solver.integrate": 1,
    "solver.final_state": 1,
    "solver.integrate_deterministic": 1,
    "solver.energy_audit": 1,
    "solver.difference_history": 2,
}

_NORMS = {"field.l2_norm", "field.h1_norm", "field.lp_norm", "field.tail_norm"}


class Tracer:
    """Span store plus the counters read at the same call boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.cg_iters = 0
        self.state_steps = 0
        self.noise_samples = 0
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, count=None):
        """``fn`` wrapped so each call records a span; ``count(args, kwargs,
        result)`` runs after each call that returns."""

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if count is not None:
                count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), replacement))

    def install(self) -> None:
        """Replace every wrapped callable wherever a pullbacklab module holds it."""
        if not self._patches:
            self._plan()
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _plan(self) -> None:
        wrappers = {}
        for mod, names in _SPANNED.items():
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name in names:
                fn = getattr(mod, name)
                span_name = f"{layer}.{name}"
                wrappers[fn] = self.span(span_name, fn, self._counter(span_name, fn))
        for factory in ("canonical_cubic", "canonical_forcing", "zero_forcing"):
            wrappers[getattr(model, factory)] = self._wrap_model_factory(
                getattr(model, factory)
            )
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name.startswith("pullbacklab") and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if callable(value) and value in wrappers:
                        self._patch(mod, attr, wrappers[value])
        self._patch(scipy.linalg, "solve_banded",
                    self.span("solver.solve", scipy.linalg.solve_banded))
        self._patch(scipy.sparse.linalg, "cg", self._wrap_cg(scipy.sparse.linalg.cg))
        post_init = field.Field.__post_init__
        self._patch(field.Field, "__post_init__", self.span("field.Field", post_init))

    def _counter(self, span_name: str, fn):
        if span_name in _MARCHES:
            states = _MARCHES[span_name]
            signature = inspect.signature(fn)

            def count_steps(args, kwargs, result):
                a = signature.bind(*args, **kwargs).arguments
                n = int(round((a["t_end"] - a["t_start"]) / a["cfg"].dt))
                self.state_steps += states * n

            return count_steps
        if span_name.startswith("noise."):
            return self._count_samples
        return None

    def _count_samples(self, args, kwargs, result) -> None:
        # path samples drawn or interpolated, plus conjugation factors evaluated
        if isinstance(result, noise.WienerPath):
            self.noise_samples += len(result.values)
        elif isinstance(result, np.ndarray):
            self.noise_samples += result.size
        elif isinstance(result, float):
            self.noise_samples += 1

    def _wrap_cg(self, cg):
        def counting_cg(*args, **kwargs):
            user_callback = kwargs.pop("callback", None)

            def callback(xk):
                self.cg_iters += 1
                if user_callback is not None:
                    user_callback(xk)

            return cg(*args, callback=callback, **kwargs)

        return self.span("solver.solve", counting_cg)

    def _wrap_model_factory(self, factory):
        """Factories return records whose f and g are what the step calls."""

        def wrapped_factory(*args, **kwargs):
            made = factory(*args, **kwargs)
            if isinstance(made, model.Nonlinearity):
                return dataclasses.replace(made, f=self.span("model.reaction", made.f))
            return dataclasses.replace(made, g=self.span("model.forcing", made.g))

        return wrapped_factory

    # -- reduction -----------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counters, keeping the installed wrappers."""
        for arr in (self.name_id, self.start, self.end, self.parent):
            del arr[:]
        self.cg_iters = self.state_steps = self.noise_samples = 0

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        a = self.arrays()
        names = [str(n) for n in a["names"]]
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        n = len(dur)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        layer = np.array([s.split(".", 1)[0] for s in names])[nid]
        name = np.array(names)[nid]
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], "")
        outermost = layer != parent_layer

        def total(values, mask) -> float:
            return float(values[mask].sum())

        out: dict[str, float] = {}
        for lay in ("noise", "model", "field", "solver", "cocycle", "attractor", "cli"):
            out[f"{lay}.self_s"] = total(self_time, layer == lay)
        for lay in ("noise", "cocycle", "attractor"):
            out[f"{lay}.calls"] = int((layer == lay).sum())
        is_solve = name == "solver.solve"
        marches = np.isin(name, list(_MARCHES))
        out["solver.solves"] = int(is_solve.sum())
        out["solver.solve_s"] = total(dur, is_solve)
        out["solver.cg_iters"] = self.cg_iters
        out["solver.marches"] = int(sum(_MARCHES[s] for s in name[marches]))
        out["solver.state_steps"] = self.state_steps
        out["solver.busy_s"] = total(dur, (layer == "solver") & outermost)
        out["solver.us_per_state_step"] = (
            1e6 * out["solver.busy_s"] / self.state_steps if self.state_steps else 0.0
        )
        for what in ("forcing", "reaction"):
            mask = name == f"model.{what}"
            out[f"model.{what}_calls"] = int(mask.sum())
            out[f"model.{what}_s"] = total(dur, mask)
        norms = np.isin(name, list(_NORMS))
        out["field.fields_built"] = int((name == "field.Field").sum())
        out["field.norm_calls"] = int(norms.sum())
        out["field.norm_s"] = total(dur, norms)
        out["field.csv_s"] = total(dur, np.char.startswith(name, "field.write_"))
        out["noise.samples"] = self.noise_samples
        out["trace.spans"] = n
        return out
