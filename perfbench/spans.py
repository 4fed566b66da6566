"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer.install`` replaces public functions of the ``sepdisc`` modules with
timing wrappers by patching module attributes (and every alias another
``sepdisc`` module imported with ``from ... import``); ``uninstall`` puts the
originals back, so untraced passes run the unmodified code. A span's self
time is its inclusive time minus the inclusive time of wrapped calls made
inside it. Counts are read from the arguments and results of the wrapped
calls; hooks that read them run outside every span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# (span key, module, attributes, patch aliases in other modules). linalg's
# coordinate maps are wrapped only where conesolve looks them up, so the span
# counts the solver's calls and nobody else's.
SPANS = (
    ("cli.main", "cli", ("main",), True),
    ("discrimination.build", "discrimination", ("optimal_ppt", "optimal_global"), True),
    ("conesolve.solve_sdp", "conesolve", ("solve_sdp",), True),
    ("conesolve.independent_rows", "conesolve", ("independent_rows",), True),
    ("conesolve.solve_lp_feasibility", "conesolve", ("solve_lp_feasibility",), True),
    ("certificates.block_positivity_search", "certificates", ("block_positivity_search",), True),
    (
        "certificates.construct",
        "certificates",
        (
            "three_bell_resource_certificate",
            "three_bell_slack_conjugations",
            "three_bell_slack_map_residual",
            "four_bell_resource_certificate",
            "four_bell_certificate_psd_margins",
            "ydy_certificate",
            "breuer_hall_witness",
        ),
        True,
    ),
    ("ups.replacement_projections", "ups", ("replacement_projections",), True),
    ("ups.is_unextendable", "ups", ("is_unextendable",), True),
    ("ups.ups_plus_state_bound", "ups", ("ups_plus_state_bound",), True),
    ("ups.separable_perfect_discrimination", "ups", ("separable_perfect_discrimination",), True),
    ("linalg.coords", "conesolve", ("herm_to_coords", "coords_to_herm"), False),
)

# Per-layer metric name -> (span key, what to read). "self" is the span's self
# time, "calls" its call count; anything else names a counter set by a hook.
METRICS = {
    "cli.main.self_s": ("cli.main", "self"),
    "discrimination.build.self_s": ("discrimination.build", "self"),
    "conesolve.solve_sdp.self_s": ("conesolve.solve_sdp", "self"),
    "conesolve.solve_sdp.calls": ("conesolve.solve_sdp", "calls"),
    "conesolve.iterations": ("conesolve.solve_sdp", "iterations"),
    "conesolve.independent_rows.s": ("conesolve.independent_rows", "self"),
    "conesolve.rows_in": ("conesolve.independent_rows", "rows_in"),
    "conesolve.rows_kept": ("conesolve.independent_rows", "rows_kept"),
    "conesolve.stall_accepts": ("conesolve.solve_sdp", "stall_accepts"),
    "conesolve.solve_lp_feasibility.self_s": ("conesolve.solve_lp_feasibility", "self"),
    "conesolve.lp_iterations": ("conesolve.solve_lp_feasibility", "lp_iterations"),
    "certificates.block_positivity_search.s": ("certificates.block_positivity_search", "self"),
    "certificates.block_positivity_search.calls": ("certificates.block_positivity_search", "calls"),
    "certificates.restarts": ("certificates.block_positivity_search", "restarts"),
    "certificates.best_alternations": ("certificates.block_positivity_search", "best_alternations"),
    "certificates.construct.s": ("certificates.construct", "self"),
    "ups.replacement_projections.s": ("ups.replacement_projections", "self"),
    "ups.subsets_visited": ("ups.replacement_projections", "subsets_visited"),
    "ups.candidates": ("ups.replacement_projections", "candidates"),
    "ups.is_unextendable.s": ("ups.is_unextendable", "self"),
    "ups.ups_plus_state_bound.s": ("ups.ups_plus_state_bound", "self"),
    "ups.separable_perfect_discrimination.self_s": ("ups.separable_perfect_discrimination", "self"),
    "linalg.coords.s": ("linalg.coords", "self"),
    "linalg.coords.calls": ("linalg.coords", "calls"),
}
DERIVED = {"conesolve.iter_s": ("conesolve.solve_sdp.self_s", "conesolve.iterations")}


def _stall_accept(problem, sol) -> int:
    """1 if the solve is reported optimal although its last iterate misses
    the solver's DEFAULT_* tolerances (accepted under ACCEPT_* instead)."""
    cs = sys.modules["sepdisc.conesolve"]
    if sol.status != cs.STATUS_OPTIMAL:
        return 0
    last = sol.log[-1]
    scale = 1.0 + abs(last.dual)
    b_scale = 1.0 + float(np.linalg.norm(problem.rhs[sol.kept_rows]))
    a_scale = 1.0 + float(np.sqrt(sum(np.sum(np.abs(a) ** 2) for a in problem.objective)))
    mu = sum(float(np.sum(x.conj() * z).real) for x, z in zip(sol.x_blocks, sol.z_blocks))
    met = (
        mu <= cs.DEFAULT_GAP_TOL * scale
        and abs(last.gap) <= cs.DEFAULT_GAP_TOL * scale
        and last.primal_residual <= cs.DEFAULT_FEAS_TOL * b_scale
        and last.dual_residual <= cs.DEFAULT_FEAS_TOL * a_scale
    )
    return 0 if met else 1


def _hook_solve_sdp(c, args, kwargs, sol):
    c["iterations"] += sol.iterations
    c["stall_accepts"] += _stall_accept(args[0], sol)


def _hook_independent_rows(c, args, kwargs, kept):
    c["rows_in"] += args[0].shape[0]
    c["rows_kept"] += kept.size


def _hook_lp(c, args, kwargs, res):
    c["lp_iterations"] += res.solution.iterations


def _hook_search(c, args, kwargs, rep):
    c["restarts"] += rep.restarts
    c["best_alternations"] += rep.iterations_per_restart


def _hook_replacements(c, args, kwargs, reps):
    n = len(args[0])
    c["subsets_visited"] += n * 2 ** (n - 1)
    c["candidates"] += sum(reps.counts)


HOOKS = {
    "conesolve.solve_sdp": _hook_solve_sdp,
    "conesolve.independent_rows": _hook_independent_rows,
    "conesolve.solve_lp_feasibility": _hook_lp,
    "certificates.block_positivity_search": _hook_search,
    "ups.replacement_projections": _hook_replacements,
}


class Tracer:
    def __init__(self) -> None:
        self._targets = self._resolve()
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.reset()

    @staticmethod
    def _resolve() -> list[tuple[str, object, str, object, bool]]:
        """(key, home module, attribute, original, aliases) for every span;
        fails loudly if a wrapped function no longer exists."""
        targets = []
        for key, mod_name, attrs, aliases in SPANS:
            home = importlib.import_module(f"sepdisc.{mod_name}")
            for attr in attrs:
                original = getattr(home, attr, None)
                if not callable(original):
                    raise RuntimeError(
                        f"sepdisc.{mod_name}.{attr} no longer exists; the traced span "
                        f"{key!r} cannot be measured (update perfbench/spans.py)"
                    )
                targets.append((key, home, attr, original, aliases))
        return targets

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def _wrap(self, key: str, fn):
        hook = HOOKS.get(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                children = stack.pop()
                self.self_s[key] += (t1 - t0) - children
                self.counters[key]["calls"] += 1
            if hook is not None:
                hook(self.counters[key], args, kwargs, result)
            if stack:
                stack[-1] += clock() - t0  # the hook belongs to no span
            return result

        return wrapper

    def install(self) -> None:
        """Patch every span's functions, and their aliases where the span asks."""
        mods = [m for n, m in sorted(sys.modules.items()) if n == "sepdisc" or n.startswith("sepdisc.")]
        for key, home, attr, original, aliases in self._targets:
            wrapper = self._wrap(key, original)
            for mod in mods if aliases else [home]:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything recorded since the last reset."""
        out: dict[str, float] = {}
        for name, (key, field) in METRICS.items():
            if field == "self":
                out[name] = self.self_s.get(key, 0.0)
            else:
                out[name] = self.counters[key][field] if key in self.counters else 0
        for name, (num, den) in DERIVED.items():
            out[name] = out[num] / out[den] if out[den] else 0.0
        return out

    def covered_s(self) -> float:
        """Sum of all span self times: the part of the wall time attributed to a layer."""
        return sum(self.self_s.values())
