"""Run one gammaseq CLI command with spans around the package's layer calls.

Usage (from the repository root, with PYTHONPATH=src):

    python perfbench/tracer.py TRACE_OUT.json <gammaseq CLI arguments...>

The program itself carries no tracing.  This script wraps the public
functions of each layer at run time, in every gammaseq module that
holds a binding to them (``from .numerics import ln_interval`` gives
``bounds``, ``sequences`` and ``polycert`` their own names, so patching
``numerics.ln_interval`` alone would miss their calls), then runs
``gammaseq.cli.main`` exactly as ``python -m gammaseq.cli`` would.
Spans are aggregated in memory per (parent, name) edge with calls,
total and self time, and written to TRACE_OUT.json when the command
ends, also when it crashes.  The command's stdout and exit code are
left untouched.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from fractions import Fraction

from gammaseq import _backend, bounds, cli, numerics, polycert, rates, sequences, series

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, time covered by child spans]
        self.edges: dict[tuple, list] = {}  # (parent, name) -> [calls, total, self]
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, before=None, after=None):
        stack = self.stack
        edges = self.edges

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                key = (parent[0] if parent is not None else None, name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        """Replace owner.attr, and every gammaseq binding of the same object."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return None
        wrapper = self.wrap(name, original, before, after)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("gammaseq"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
        return original

    def patch_method(self, cls, attr: str, name: str):
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(name)
        elif isinstance(original, property):
            setattr(cls, attr, property(self.wrap(name, original.fget)))
        else:
            setattr(cls, attr, self.wrap(name, original))

    def spans(self) -> list[dict]:
        return [
            {"parent": parent, "name": name, "calls": calls,
             "total_s": total, "self_s": self_s}
            for (parent, name), (calls, total, self_s) in sorted(
                self.edges.items(), key=lambda item: (str(item[0][0]), item[0][1]))
        ]


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    if isinstance(value, int) and not isinstance(value, bool):
        return value.bit_length()
    if isinstance(value, tuple):
        return sum(_bits(v) for v in value)
    return 0


def install(tracer: Tracer):
    """Wrap the layer boundaries; returns the untraced gamma_reference."""
    kernels = _backend.kernels
    tracer.patch(kernels, "atanh_fixed", "kernels.atanh_fixed",
                 before=lambda args: tracer.count("kernels.atanh_fixed.bits", args[2]))
    for kernel in ("harmonic_fixed", "gamma_series_fixed"):
        tracer.patch(kernels, kernel, f"kernels.{kernel}")

    tracer.patch(numerics, "harmonic_exact", "numerics.harmonic_exact")
    tracer.patch(numerics, "ln_interval", "numerics.ln_interval")
    tracer.patch(numerics, "gamma_bootstrap", "numerics.gamma_bootstrap")
    gamma_reference = tracer.patch(numerics, "gamma_reference", "numerics.gamma_reference")
    tracer.patch_method(numerics.BigReal, "decimal_str", "numerics.decimal_str")

    tracer.patch(sequences, "evaluate_interval", "sequences.evaluate_interval")
    tracer.patch(sequences, "split_eval", "sequences.split_eval")
    tracer.patch(sequences, "evaluate", "sequences.evaluate")

    tracer.patch(rates, "empirical_rate", "rates.empirical_rate")
    tracer.patch(rates, "optimize_parameters", "rates.optimize_parameters")
    tracer.patch(series, "v_family_difference", "series.v_family_difference")
    tracer.patch(polycert, "tail_sign_verdict", "polycert.tail_sign_verdict")
    tracer.patch(polycert, "positivity_certificate", "polycert.positivity_certificate")

    def sweep_done(report):
        start = getattr(report, "precision_start", None)
        cap = getattr(report, "precision_cap", None)
        for row in getattr(report, "rows", ()):
            attempts, p = 1, start
            while p is not None and p < row.precision:
                p = min(2 * p, cap)
                attempts += 1
            tracer.count("bounds.rows")
            tracer.count("bounds.attempts", attempts)
            if dataclasses.is_dataclass(row):
                tracer.count("bounds.row_payload_bits", sum(
                    _bits(getattr(row, f.name)) for f in dataclasses.fields(row)))

    tracer.patch(bounds, "sweep", "bounds.sweep", after=sweep_done)
    for prop in ("counts", "min_margin", "min_margin_n"):
        tracer.patch_method(bounds.SweepReport, prop, "bounds.report")

    get_entry = bounds.get_entry

    def traced_get_entry(entry_id):
        entry = get_entry(entry_id)
        sides = {side: tracer.wrap("bounds.side", fn) for side in ("lower", "upper")
                 if (fn := getattr(entry, side, None)) is not None}
        return dataclasses.replace(entry, **sides)

    bounds.get_entry = traced_get_entry

    for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
        tracer.patch(cli, attr, "cli")
    return gamma_reference


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    gamma_reference = install(tracer)
    start = _clock()
    try:
        return cli.main(cli_args)
    finally:
        cache = {"hits": 0, "misses": 0}
        if gamma_reference is not None and hasattr(gamma_reference, "cache_info"):
            info = gamma_reference.cache_info()
            cache = {"hits": info.hits, "misses": info.misses}
        record = {
            "argv": cli_args,
            "wall_s": _clock() - start,
            "spans": tracer.spans(),
            "counters": tracer.counters,
            "gamma_reference_cache": cache,
            "missing": tracer.missing,
        }
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
