"""Outside-in layer tracer for one `multistruct` CLI invocation.

Usage, from the root of a checkout with ``PYTHONPATH=src``::

    python3 replbench/layertrace.py OUT.json replicate <target> [flags]

The tracer imports ``multistruct.cli``, rebinds each function in ``LAYERS``
(and every ``cli.RUNNERS`` entry) wherever the package looks it up, runs
``cli.main`` on the remaining arguments, restores the originals and writes
the recorded spans and per-layer counts to OUT.json.  It prints nothing, so
the invocation's stdout and exit code are those of the untraced CLI.

Rebinding happens outside the program: every module attribute, class
attribute and ``RUNNERS`` value that holds the original function object is
replaced, so a name imported directly (``graded.bareiss_rank``,
``cli.injectivity_certificate``) is traced as well as a name called through
its module (``_kernels.mul_int_dicts``) or an aliased method
(``MultiPoly.__rmul__ = __mul__``).

Span times run on a clock that stops while the tracer does its own
bookkeeping, so a parent's self time excludes the cost of tracing its
children.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (reported name, module, attribute path) of each traced function.
LAYERS = (
    ("graded.injectivity_certificate", "multistruct.graded", "injectivity_certificate"),
    ("graded.splitting_type", "multistruct.graded", "splitting_type"),
    ("graded.slice_matrix", "multistruct.graded", "slice_matrix"),
    ("graded.matrix_rank", "multistruct.graded", "matrix_rank"),
    ("kernels.bareiss_rank", "multistruct._kernels", "bareiss_rank"),
    ("kernels.mul_int_dicts", "multistruct._kernels", "mul_int_dicts"),
    ("arith.MultiPoly.__mul__", "multistruct.arith", "MultiPoly.__mul__"),
    ("arith.MultiPoly.substitute", "multistruct.arith", "MultiPoly.substitute"),
    ("chow.euler_characteristic", "multistruct.chow", "euler_characteristic"),
    ("integrality.congruence_residues", "multistruct.integrality", "congruence_residues"),
    ("cohomology.solve_exact_sequence", "multistruct.cohomology", "solve_exact_sequence"),
)


class Tracer:
    """Spans and counts of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.names: list[str] = []
        # (name id, start, end, parent span index or -1), in start order.
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.stack: list[int] = []
        self.offset = 0.0  # bookkeeping time removed from the span clock
        self.counts: dict[str, dict[str, int]] = {}
        self.distinct: dict[str, set] = {}
        self.paused = False  # set while an observer runs, which may call traced code

    def wrap(self, name, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        self.counts[name] = {}
        self.distinct[name] = set()

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            span = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(span)
            t1 = perf_counter()
            self.offset += t1 - t0
            start = t1 - self.offset
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                self.stack.pop()
                self.spans[span] = (nid, start, t2 - self.offset, parent)
            if observe is not None:
                self.paused = True
                try:
                    observe(self.counts[name], self.distinct[name], args, kwargs, result)
                finally:
                    self.paused = False
            self.offset += perf_counter() - t2
            return result

        return traced

    def layers(self) -> dict[str, dict[str, float]]:
        """Per name: calls, self time, outermost total time, and counts."""
        out = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, **self.counts[name]}
            for name in self.names
        }
        for name in self.names:
            out[name]["distinct"] = len(self.distinct[name])
        spans = self.spans
        child_time = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        masks = [0] * len(spans)  # bit n set: some ancestor-or-self is name n
        for i, (nid, start, end, parent) in enumerate(spans):
            above = masks[parent] if parent >= 0 else 0
            masks[i] = above | (1 << nid)
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[i]
            if not (above >> nid) & 1:
                entry["total_s"] += end - start
        return out

    def dump(self, path: str, argv: list[str], exit_code: int) -> None:
        document = {
            "argv": argv,
            "exit_code": exit_code,
            "names": self.names,
            "layers": self.layers(),
            # name id, start and end in microseconds, parent span index
            "spans": [
                [nid, round(start * 1e6), round(end * 1e6), parent]
                for nid, start, end, parent in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _observe_rank(counts, distinct, args, kwargs, rank):
    rows = args[0]
    ncols = len(rows[0]) if rows else 0
    counts["entries"] = counts.get("entries", 0) + len(rows) * ncols
    if rank == min(len(rows), ncols):
        counts["full_rank"] = counts.get("full_rank", 0) + 1
    distinct.add((len(rows), ncols, hash(tuple(map(tuple, rows)))))


def _observe_product(counts, distinct, args, kwargs, product):
    a, b = args
    counts["term_products"] = counts.get("term_products", 0) + len(a) * len(b)


def _certificate_observer(original):
    """Count distinct (r, pair, points) certificates, defaults resolved."""
    import inspect

    from multistruct import graded

    signature = inspect.signature(original)

    def observe(counts, distinct, args, kwargs, result):
        given = signature.bind(*args, **kwargs).arguments
        r = given["r"]
        pair = given.get("pair") or graded.default_pair(r)
        points = given.get("points") or graded.DEFAULT_POINTS
        distinct.add((r, pair, tuple(points)))

    return observe


OBSERVERS = {
    "kernels.bareiss_rank": lambda original: _observe_rank,
    "kernels.mul_int_dicts": lambda original: _observe_product,
    "graded.injectivity_certificate": _certificate_observer,
}


def _lookup(module, path):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _bindings(original):
    """Every (namespace, key) in the package whose value is `original`."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("multistruct"):
            continue
        for key, value in vars(module).items():
            if value is original:
                found.append((module, key))
            elif isinstance(value, type) and value.__module__ == mod_name:
                found.extend((value, k) for k, v in vars(value).items() if v is original)
    return found


def install(tracer: Tracer, cli) -> tuple[list, list[str]]:
    """Rebind every traced function; return the undo list and missing names."""
    targets = []
    missing = []
    for name, mod_name, path in LAYERS:
        original = _lookup(sys.modules.get(mod_name), path)
        if original is None:
            missing.append(name)
            continue
        targets.append((name, original))
    for fn in dict.fromkeys(cli.RUNNERS.values()):
        targets.append((f"cli.{fn.__name__}", fn))

    undo = []
    for name, original in targets:
        observer = OBSERVERS.get(name)
        wrapper = tracer.wrap(name, original, observer and observer(original))
        sites = _bindings(original)
        for owner, key in sites:
            setattr(owner, key, wrapper)
        for key, value in cli.RUNNERS.items():
            if value is original:
                cli.RUNNERS[key] = wrapper
                sites.append((cli.RUNNERS, key))
        undo.extend((owner, key, original) for owner, key in sites)
    return undo, missing


def uninstall(undo) -> None:
    for owner, key, original in reversed(undo):
        if isinstance(owner, dict):
            owner[key] = original
        else:
            setattr(owner, key, original)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: layertrace.py OUT.json replicate <target> [flags]", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    from multistruct import cli

    tracer = Tracer()
    undo, missing = install(tracer, cli)
    try:
        code = cli.main(cli_args)
    finally:
        uninstall(undo)
    sys.stdout.flush()
    tracer.dump(out_path, cli_args, code)
    if missing:
        print(f"layertrace: not found, not traced: {', '.join(missing)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
