"""Spans around the package's layer entry points, for the traced run only.

:class:`Tracer` replaces each entry point named in ``SPANS`` and ``ROWS``
with a timing wrapper, everywhere the package binds that name, and puts the
originals back on :meth:`Tracer.uninstall`.  Nothing in the package itself
changes.  Spans stay in memory until the run ends.

* ``SPANS`` are called a few times per operation.  Each call records a span
  with its name, start, end, parent and self time (its duration minus the
  time its traced children took).
* ``ROWS`` are called once per row or per coefficient.  A span per call
  would cost more than the call, so these are aggregated per name and
  parent name as a call count plus a total.  They must be leaves: no traced
  function runs inside them.
* ``TABLE_FIELDS`` of ``CoefficientTable`` are read through a descriptor
  that notes which tables of each traced operation a caller reads, to
  count the wrapped tables nobody reads.

:func:`layer_metrics` turns the spans of the traced operations into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import itertools
import os
import sys
from time import perf_counter

# (module, attribute, span name); the module is relative to ``lane_emden``.
# A dotted attribute is patched on the object it names (the class, or the
# active kernel module), where every caller looks it up; a plain one is
# patched in every package module that imported it by name.
SPANS = (
    ("series", "compute_coefficients", "series.compute_coefficients"),
    ("_backend", "kernels.lee_series_tables", "kernels.lee_series_tables"),
    ("_backend", "kernels.midpoint_steps", "kernels.midpoint_steps"),
    ("integrate", "solve_midpoint", "integrate.solve_midpoint"),
    ("integrate", "seed_values", "integrate.seed_values"),
    ("evaluation", "residual_coefficients", "evaluation.residual_coefficients"),
    ("series", "verify_c_by_power", "series.verify_c_by_power"),
    ("cli", "cmd_coeffs", "cli.cmd"),
    ("cli", "cmd_integrate", "cli.cmd"),
    ("cli", "cmd_compare", "cli.cmd"),
    ("cli", "_write_lines", "cli._write_lines"),
)

ROWS = (
    ("exact", "IndexPolynomial.__str__", "exact.__str__"),
    ("exact", "IndexPolynomial.evaluate", "exact.evaluate"),
    ("parsing", "parse_expression", "parsing.parse_expression"),
    ("evaluation", "eval_series_float", "evaluation.eval_series_float"),
)

# The tables that ``compute_coefficients`` wraps into ``IndexPolynomial``.
TABLE_CLASS = ("series", "CoefficientTable")
TABLE_FIELDS = ("a", "c")

PACKAGE = "lane_emden"
ROOT = "op"
_MISSING = object()


def _stored_steps(args, result):
    # solve_midpoint hands the kernel the origin plus three seeded samples.
    return {"steps": len(args[3]) - 4}


def _written(args, result):
    return {"lines": len(args[1]), "bytes": os.path.getsize(args[0])}


class _TableField:
    """A data descriptor for one table field that notes reads of it.

    Instances keep the value in their ``__dict__``, as before; the frozen
    dataclass's ``__init__`` sets it through :meth:`__set__`.
    """

    def __init__(self, field, tables):
        self.field = field
        self.tables = tables  # id(table) -> (table, set of fields read)

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        entry = self.tables.get(id(obj))
        if entry is not None:
            entry[1].add(self.field)
        return obj.__dict__[self.field]

    def __set__(self, obj, value):
        obj.__dict__[self.field] = value


class Tracer:
    """Installs the wrappers and holds the spans they record."""

    def __init__(self):
        self.spans = []      # (id, name, start, end, parent id, self seconds, extra)
        self.rows = {}       # (name, parent name) -> [calls, total seconds, size]
        self.last_kernel_tables = None
        self.tables_wrapped = 0  # tables built by compute_coefficients
        self.tables_read = 0     # ... of which a caller read the field
        self._tables = {}        # the current operation's, by id
        self._stack = []     # open spans: [id, name, start, child seconds]
        self._ids = itertools.count()
        self._restore = []
        self._after = {
            ROOT: self._count_table_reads,
            "series.compute_coefficients": self._watch_table,
            "kernels.lee_series_tables": self._keep_tables,
            "kernels.midpoint_steps": _stored_steps,
            "cli._write_lines": _written,
        }

    def _keep_tables(self, args, result):
        self.last_kernel_tables = result

    def _watch_table(self, args, result):
        # The entry holds the table, so its id stays unique until counted.
        self._tables[id(result)] = (result, set())

    def _count_table_reads(self, args, result):
        self.tables_wrapped += len(TABLE_FIELDS) * len(self._tables)
        self.tables_read += sum(len(read) for _, read in self._tables.values())
        self._tables.clear()

    def span(self, name, fn):
        """``fn`` wrapped to record one span per call."""
        stack, spans, ids = self._stack, self.spans, self._ids
        after = self._after.get(name)

        def wrapped(*args, **kwargs):
            frame = [next(ids), name, perf_counter(), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
            extra = after(args, result) if after else None
            spans.append(
                (frame[0], name, frame[2], end, parent, duration - frame[3], extra)
            )
            return result

        return wrapped

    def row(self, name, fn):
        """``fn`` wrapped to add its calls to a per-parent count and total."""
        stack, rows = self._stack, self.rows
        sized = name == "parsing.parse_expression"

        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                parent = stack[-1][1] if stack else None
                if stack:
                    stack[-1][3] += duration
                agg = rows.setdefault((name, parent), [0, 0.0, 0])
                agg[0] += 1
                agg[1] += duration
                if sized:
                    agg[2] += len(args[0])

        return wrapped

    def install(self):
        """Wrap every entry point wherever the package binds it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for table, make in ((SPANS, self.span), (ROWS, self.row)):
            for module, attr, name in table:
                owner = sys.modules[f"{PACKAGE}.{module}"]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    self._patch(owner, attr, make(name, getattr(owner, attr)))
                    continue
                original = getattr(owner, attr)
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        module, cls_name = TABLE_CLASS
        table_cls = getattr(sys.modules[f"{PACKAGE}.{module}"], cls_name)
        for field in TABLE_FIELDS:
            self._patch(table_cls, field, _TableField(field, self._tables))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def to_json(self):
        keys = ("id", "name", "start", "end", "parent", "self_s", "extra")
        return {
            "spans": [dict(zip(keys, span)) for span in self.spans],
            "rows": [
                {"name": name, "parent": parent, "calls": calls,
                 "total_s": total, "size": size}
                for (name, parent), (calls, total, size) in self.rows.items()
            ],
        }


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-operation means of the layers' self times and counts.

    Every second of a traced operation falls into exactly one of the self
    times below, so they add up to the mean traced operation time.
    """
    self_s, calls, extras = {}, {}, {}
    for _, name, _, _, _, self_time, extra in tracer.spans:
        self_s[name] = self_s.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + 1
        for key, value in (extra or {}).items():
            extras[key] = extras.get(key, 0) + value
    row_s, row_calls, row_size = {}, {}, {}
    for (name, _), (count, total, size) in tracer.rows.items():
        row_s[name] = row_s.get(name, 0.0) + total
        row_calls[name] = row_calls.get(name, 0) + count
        row_size[name] = row_size.get(name, 0) + size

    def per_op(table, name):
        return table.get(name, 0) / ops

    steps_s = per_op(self_s, "kernels.midpoint_steps")
    steps = per_op(extras, "steps")
    parse_s = per_op(row_s, "parsing.parse_expression")
    float_calls = per_op(row_calls, "evaluation.eval_series_float")
    return {
        "series.kernel_s": per_op(self_s, "kernels.lee_series_tables"),
        "series.kernel_calls": per_op(calls, "kernels.lee_series_tables"),
        "series.verify_power_s": per_op(self_s, "series.verify_c_by_power"),
        "exact.wrap_s": per_op(self_s, "series.compute_coefficients"),
        "exact.wrap_useful_frac": (
            tracer.tables_read / tracer.tables_wrapped
            if tracer.tables_wrapped else 0.0
        ),
        "exact.print_s": per_op(row_s, "exact.__str__"),
        "exact.evaluate_s": per_op(row_s, "exact.evaluate"),
        "exact.evaluate_calls": per_op(row_calls, "exact.evaluate"),
        "parsing.parse_s": parse_s,
        "parsing.parse_calls": per_op(row_calls, "parsing.parse_expression"),
        "parsing.chars_per_s": (
            per_op(row_size, "parsing.parse_expression") / parse_s
            if parse_s else 0.0
        ),
        "evaluation.series_float_s": per_op(row_s, "evaluation.eval_series_float"),
        "evaluation.series_float_calls": float_calls,
        # Computed, not measured: each call converts every even coefficient
        # of the same series from Fraction to float again.
        "evaluation.coeff_reuse_frac": 1 / float_calls if float_calls else 0.0,
        "evaluation.residual_s": per_op(self_s, "evaluation.residual_coefficients"),
        "integrate.solve_s": per_op(self_s, "integrate.solve_midpoint"),
        "integrate.steps_s": steps_s,
        "integrate.seed_s": per_op(self_s, "integrate.seed_values"),
        "integrate.steps": steps,
        "integrate.ns_per_step": steps_s / steps * 1e9 if steps else 0.0,
        "cli.format_s": per_op(self_s, "cli.cmd"),
        "cli.write_s": per_op(self_s, "cli._write_lines"),
        "cli.rows": per_op(extras, "lines"),
        "cli.bytes_out": per_op(extras, "bytes"),
        "op.other_s": per_op(self_s, ROOT),
    }
