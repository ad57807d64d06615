"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each package layer from the
outside: it replaces each name in the module where it is looked up at
call time (``obembed.openbook.cokernel``, ``obembed.embedder.closed_h1``
and so on) with a wrapper that records a span and size counters, and
puts the originals back on exit.  Nothing in the package changes.

A span is (id, parent id, layer.function, start ns, end ns).  Spans are
kept in memory and written out as JSON lines when the run ends.  A
function's self time is its spans' duration minus the time covered by
their direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (layer.function, [modules that look the name up])
WRAPPED = [
    ("cli.run", ["obembed.cli"]),
    ("openbook.parse_openbook", ["obembed.openbook"]),
    ("surface.lickorish_system", ["obembed.openbook", "obembed.embedder", "obembed.cli"]),
    ("mcg.word_action", ["obembed.openbook"]),
    ("mcg.arc_defect", ["obembed.openbook"]),
    ("intlinalg.cokernel", ["obembed.openbook"]),
    ("openbook.closed_h1", ["obembed.cli", "obembed.embedder"]),
    ("openbook.mapping_torus_h1", ["obembed.cli"]),
    ("openbook.reduce_to_one_boundary", ["obembed.cli", "obembed.embedder"]),
    ("embedder.build_flexible_embedding", ["obembed.embedder"]),
    ("embedder.build_openbook_embedding", ["obembed.embedder"]),
    ("embedder.build_annulus_s5", ["obembed.embedder"]),
    ("embedder.build_s5_plan", ["obembed.embedder"]),
    ("embedder.certificate_to_json", ["obembed.embedder"]),
    ("embedder.validate_certificate", ["obembed.embedder"]),
]

BUILDERS = {"embedder.build_flexible_embedding", "embedder.build_openbook_embedding",
            "embedder.build_annulus_s5", "embedder.build_s5_plan"}


def _max_bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    """Records spans and size counters while installed (a context manager)."""

    def __init__(self, modules):
        self.modules = modules          # name -> module object
        self.spans = []                 # [id, parent, name, t0, t1]
        self.counters = defaultdict(int)
        self._stack = []
        self._saved = []

    # -- counters taken at the layer boundaries -------------------------

    def _count(self, name, holder, args, result):
        c = self.counters
        if name == "mcg.word_action":
            c["mcg.letters"] += len(args[0])
            if result is not None:
                bits = _max_bits(result.row(i) for i in range(result.rows))
                c["mcg.action_max_bits"] = max(c["mcg.action_max_bits"], bits)
        elif name == "intlinalg.cokernel":
            m = args[0]
            c["intlinalg.cokernel.max_rank"] = max(c["intlinalg.cokernel.max_rank"], m.rows)
            bits = _max_bits(m.row(i) for i in range(m.rows))
            c["intlinalg.cokernel.input_max_bits"] = max(
                c["intlinalg.cokernel.input_max_bits"], bits)
            if result is not None:
                bits = max((d.bit_length() for d in result.torsion), default=0)
                c["intlinalg.torsion_max_bits"] = max(c["intlinalg.torsion_max_bits"], bits)
        elif name == "embedder.certificate_to_json" and result is not None:
            c["embedder.cert_bytes"] += len(result.encode("utf-8"))
        elif name == "openbook.closed_h1" and holder == "obembed.embedder":
            c["embedder.h1_recomputes"] += 1
        elif name == "embedder.build_s5_plan":
            c["embedder.s5_plans"] += 1
        elif name == "embedder.validate_certificate":
            cert = args[0]
            if isinstance(cert, str) and '"kind":"s5_plan"' in cert or \
               isinstance(cert, dict) and cert.get("kind") == "s5_plan":
                c["embedder.s5_plans"] += 1

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, holder, fn):
        spans, stack, count = self.spans, self._stack, self._count
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([idx, stack[-1] if stack else None, name, clock(), 0])
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                # counters before the end stamp: their cost is this span's
                try:
                    count(name, holder, args, result)
                finally:
                    spans[idx][4] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        for name, holders in WRAPPED:
            attr = name.split(".", 1)[1]
            for mod_name in holders:
                mod = self.modules[mod_name]
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, mod_name, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    # -- results ------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": idx, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")

    def layer_metrics(self):
        """Per-layer totals (ms), self times (ms), calls and size counters."""
        total = defaultdict(int)
        own = defaultdict(int)
        calls = defaultdict(int)
        build_ns = 0
        for idx, parent, name, t0, t1 in self.spans:
            d = t1 - t0
            total[name] += d
            own[name] += d
            calls[name] += 1
            if parent is not None:
                own[self.spans[parent][2]] -= d
            if name in BUILDERS and (parent is None or self.spans[parent][2] not in BUILDERS):
                build_ns += d
        ms = 1e-6
        c = self.counters
        base = c["embedder.s5_plans"]
        return {
            "mcg.word_action.ms": total["mcg.word_action"] * ms,
            "mcg.arc_defect.ms": total["mcg.arc_defect"] * ms,
            "mcg.letters": c["mcg.letters"],
            "mcg.action_max_bits": c["mcg.action_max_bits"],
            "intlinalg.cokernel.ms": total["intlinalg.cokernel"] * ms,
            "intlinalg.cokernel.calls": calls["intlinalg.cokernel"],
            "intlinalg.cokernel.max_rank": c["intlinalg.cokernel.max_rank"],
            "intlinalg.cokernel.input_max_bits": c["intlinalg.cokernel.input_max_bits"],
            "intlinalg.torsion_max_bits": c["intlinalg.torsion_max_bits"],
            "openbook.parse_openbook.ms": total["openbook.parse_openbook"] * ms,
            "surface.lickorish_system.ms": total["surface.lickorish_system"] * ms,
            "surface.lickorish_system.calls": calls["surface.lickorish_system"],
            "cli.run.self_ms": own["cli.run"] * ms,
            "openbook.closed_h1.self_ms": own["openbook.closed_h1"] * ms,
            "openbook.closed_h1.calls": calls["openbook.closed_h1"],
            "openbook.mapping_torus_h1.self_ms": own["openbook.mapping_torus_h1"] * ms,
            "openbook.reduce_to_one_boundary.ms":
                total["openbook.reduce_to_one_boundary"] * ms,
            "embedder.build.ms": build_ns * ms,
            "embedder.certificate_to_json.ms": total["embedder.certificate_to_json"] * ms,
            "embedder.cert_bytes": c["embedder.cert_bytes"],
            "embedder.validate_certificate.self_ms":
                own["embedder.validate_certificate"] * ms,
            "embedder.validate_certificate.calls": calls["embedder.validate_certificate"],
            "embedder.h1_recomputes_per_cert":
                c["embedder.h1_recomputes"] / base if base else 0.0,
            "embedder.h1_recomputes_base": base,
        }
