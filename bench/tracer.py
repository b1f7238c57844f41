"""Per-layer counters for the cubres package, installed from outside it.

The layers are the package's modules. Each traced function is replaced by
a timing wrapper at every binding site: the modules import one another's
functions by name, so `cubres.verify.determinant`, `cubres.tables.determinant`
and `cubres.determinant.determinant` are three references to patch. Each
module is looked up in `sys.modules` by its dotted name, because the
package attribute `cubres.determinant` is the function, not the module.

Hot leaves (the symbol, about 2M calls in `verify --p-max 60`) are only
counted and timed. Calls at matrix level and above are spans: they keep a
stack of the time their traced callees took, which gives self time as
busy time minus child time. Functions the package no longer defines are
reported as absent, never as zero.
"""

import importlib
import sys
import time

LEAF, SPAN = "leaf", "span"


def _cube_of_order(args, result):
    m = args[0]
    return (getattr(m, "order", None) or len(m)) ** 3


def _cells(args, result):
    return len(result.cells)


def _bytes(args, result):
    return len(result.encode())


def _cases(args, result):
    reports = result if isinstance(result, list) else [result]
    return sum(r.cases_checked for r in reports)


_CHECKERS = (
    "check_propositions", "check_t3_1", "check_t3_2", "check_t3_3", "check_t3_4",
    "check_t3_5", "check_t3_6", "check_t3_7", "check_row_period_np",
    "check_table_period", "check_remark_n1",
)

# (module, function, layer, kind, extra), where extra is None or a count
# taken from each call's arguments and result: (metric, function).
TARGETS = (
    ("cubres.residues", "cubic_residue_symbol", "residues.symbol", LEAF, None),
    ("cubres.residues", "cubic_residue_set", "residues.residue_set", LEAF, None),
    ("cubres.residues", "cube_root", "residues.cube_root", LEAF, None),
    ("cubres.matrices", "build_matrix", "matrices.build", SPAN, None),
    ("cubres.determinant", "determinant", "determinant", SPAN,
     ("determinant.n3_sum", _cube_of_order)),
    ("cubres.determinant", "_eliminate_int64", "determinant.int64", SPAN, None),
    ("cubres.determinant", "_eliminate_bigint", "determinant.bigint", SPAN, None),
    ("cubres.tables", "generate_table", "tables.generate", SPAN,
     ("tables.cells", _cells)),
    ("cubres.render", "emit_svg", "render.emit_svg", SPAN,
     ("render.bytes_out", _bytes)),
    *(("cubres.verify", name, f"verify.{name}", SPAN,
       (f"verify.{name}.cases", _cases)) for name in _CHECKERS),
    ("cubres.verify", "verify_all", "verify.verify_all", SPAN, None),
    ("cubres.cli", "main", "cli.main", SPAN, None),
)

# Metrics a traced run reports, with unit and direction.
PER_LAYER = (
    ("residues.symbol.calls", "count", "lower"),
    ("residues.symbol.busy_s", "s", "lower"),
    ("residues.residue_set.calls", "count", "lower"),
    ("residues.residue_set.busy_s", "s", "lower"),
    ("residues.cube_root.calls", "count", "lower"),
    ("residues.cube_root.busy_s", "s", "lower"),
    ("matrices.build.calls", "count", "lower"),
    ("matrices.build.self_s", "s", "lower"),
    ("determinant.calls", "count", "lower"),
    ("determinant.busy_s", "s", "lower"),
    ("determinant.self_s", "s", "lower"),
    ("determinant.n3_sum", "count", "lower"),
    ("determinant.int64.calls", "count", "lower"),
    ("determinant.int64.busy_s", "s", "lower"),
    ("determinant.bigint.calls", "count", "lower"),
    ("determinant.bigint.busy_s", "s", "lower"),
    ("determinant.bail_ratio", "ratio", "lower"),
    ("tables.generate.calls", "count", "lower"),
    ("tables.generate.self_s", "s", "lower"),
    ("tables.cells", "count", "higher"),
    ("render.emit_svg.busy_s", "s", "lower"),
    ("render.bytes_out", "B", "lower"),
    *((f"verify.{name}.{kind}", unit, better)
      for name in _CHECKERS
      for kind, unit, better in (("busy_s", "s", "lower"), ("cases", "count", "higher"))),
    ("verify.verify_all.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Wraps every TARGETS function while installed; `with Tracer() as t`
    restores the originals on exit."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack = [[0.0]]  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cubres" or name.startswith("cubres.")]
        for module, func, layer, kind, extra in TARGETS:
            original = getattr(importlib.import_module(module), func, None)
            if original is None:
                self.absent.append(layer)
                continue
            wrapper = self._wrap(original, layer, kind, extra)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def _wrap(self, f, layer: str, kind: str, extra):
        counts, stack, clock = self.counts, self._stack, time.perf_counter
        calls, busy, self_ = f"{layer}.calls", f"{layer}.busy_s", f"{layer}.self_s"
        counts[calls] = counts[busy] = 0
        if kind == LEAF:
            def leaf(*args, **kwargs):
                t0 = clock()
                try:
                    return f(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    counts[calls] += 1
                    counts[busy] += dt
                    stack[-1][0] += dt
            return leaf

        counts[self_] = 0
        if extra is not None:
            extra_name, extra_count = extra
            counts.setdefault(extra_name, 0)

        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = f(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                counts[calls] += 1
                counts[busy] += dt
                counts[self_] += dt - child[0]
            if extra is not None:
                counts[extra_name] += extra_count(args, result)
            return result
        return span

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """The PER_LAYER values, minus those of absent layers."""
        counts = dict(self.counts, **{"trace.overhead_s": overhead_s})
        if "determinant.int64.calls" in counts and "determinant.bigint.calls" in counts:
            attempts = counts["determinant.int64.calls"]
            counts["determinant.bail_ratio"] = (
                counts["determinant.bigint.calls"] / attempts if attempts else 0.0)
        return {name: counts[name] for name, _, _ in PER_LAYER if name in counts}

