"""Outside-in layer tracing for the traced benchmark run.

The tracer replaces each traced function under every name a conicrect
module binds it to (``conicrect.conics.integrate``, ``conicrect.landen.
complete_E``, the package-level ``conicrect.agm`` function, ...) with a
wrapper that records a span, and puts every original back on exit.  No
file of the program changes.  Spans are folded into per-function totals as
they close: calls, self time (span minus the spans of traced callees) and,
for ``integrate``, the evaluation count the oracle reports, credited to
every open span so a composite sees the evaluations made on its behalf.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

# layer (module name) -> traced public functions
LAYERS = {
    "quadrature": ("integrate",),
    "agm": ("agm", "complete_K", "complete_E", "incomplete_F", "incomplete_E", "series_KE", "lemniscate"),
    "landen": ("check_gleichung", "check_borwein", "check_agm_invariance", "amplitude_inverse", "upper_limit"),
    "conics": (
        "excess_finite",
        "hyperbola_arc",
        "simpson_arc",
        "landen_theorem_check",
        "fagnano_check",
        "excess_infinity_closed",
        "excess_infinity_landen",
    ),
    "construction": ("render_svg",),
}

MARK = "__benchmark_trace_wrapper__"


def _program_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "conicrect" or name.startswith("conicrect.")]


def installed_wrappers() -> list[str]:
    """Names of every module attribute that is still a tracer wrapper."""
    return [
        f"{m.__name__}.{attr}"
        for m in _program_modules()
        for attr, value in vars(m).items()
        if getattr(value, MARK, False)
    ]


class Tracer:
    """Context manager: wrappers live exactly as long as the ``with`` block."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.evaluations: dict[str, int] = {}
        self.quad_converged = 0
        self.quad_singular = 0
        self.agm_iterations = 0
        self.svg_bytes = 0
        self._stack: list[list] = []  # [function key, ns spent in traced callees]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"conicrect.{layer}"]  # conicrect.agm is the function
            for name in names:
                fn = getattr(module, name)
                key = f"{layer}.{name}"
                wrappers[id(fn)] = (fn, self._wrap(fn, key))
                self.calls[key] = self.self_ns[key] = self.evaluations[key] = 0
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def _wrap(self, fn, key: str):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == key:
                # integrate re-enters itself for a reversed interval; that
                # call is part of the outer span
                return fn(*args, **kwargs)
            frame = [key, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += span
                self.calls[key] += 1
                self.self_ns[key] += span - frame[1]
            self._observe(key, args, kwargs, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _observe(self, key: str, args, kwargs, result) -> None:
        if key == "quadrature.integrate":
            self.evaluations[key] += result.evaluations
            for frame in self._stack:
                self.evaluations[frame[0]] += result.evaluations
            self.quad_converged += result.converged
            singular = args[4] if len(args) > 4 else kwargs.get("singular_endpoints", "none")
            self.quad_singular += singular != "none"
        elif key == "agm.agm":
            self.agm_iterations += result.iterations
        elif key == "construction.render_svg":
            self.svg_bytes += len(result.encode("utf-8"))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, named as BENCHMARK.json lists them."""
        us = {k: v / 1000.0 for k, v in self.self_ns.items()}
        q_calls = self.calls["quadrature.integrate"]
        q_evals = self.evaluations["quadrature.integrate"]
        out = {
            "quadrature.calls": q_calls,
            "quadrature.evaluations": q_evals,
            "quadrature.evals_per_call": q_evals / q_calls if q_calls else 0.0,
            "quadrature.self_us": us["quadrature.integrate"],
            "quadrature.us_per_eval": us["quadrature.integrate"] / q_evals if q_evals else 0.0,
            "quadrature.converged_ratio": self.quad_converged / q_calls if q_calls else 0.0,
            "quadrature.singular_calls": self.quad_singular,
        }
        for layer in ("agm", "landen", "conics"):
            for name in LAYERS[layer]:
                key = f"{layer}.{name}"
                out[f"{layer}.calls.{name}"] = self.calls[key]
                out[f"{layer}.self_us.{name}"] = us[key]
                if layer == "conics":
                    out[f"conics.evaluations.{name}"] = self.evaluations[key]
        out["agm.iterations"] = self.agm_iterations
        out["construction.render_svg_us"] = us["construction.render_svg"]
        out["construction.svg_bytes"] = self.svg_bytes
        return out
