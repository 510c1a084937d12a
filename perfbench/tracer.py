"""Traced in-process run: ``python3 -m perfbench.tracer <plan.json>``.

Wraps every public function of each library layer, and every
``collusioncore.*`` attribute bound to one, so calls from ``cli`` and
between layers all record a span (name, start, end, parent). Per-item hot
functions are counted, not timed. The plan's CLI commands then run through
``collusioncore.cli.main`` in this one process; spans stay in memory and are
written to the plan's output file once, at the end.
"""

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

LAYERS = ("records", "graph", "kcore", "korse", "analysis", "embeddings",
          "features", "nurse", "centrality")
COUNT_ONLY = {"embeddings.cosine"}
METHODS = ("embeddings.HashEmbedder.embed_text", "embeddings.FileEmbedder.embed_text")
CALIBRATION_CALLS = 20_000


class Recorder:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.texts = set()
        self.values = Counter()

    def wrap(self, name, fn):
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self.observe(name, args, result)
            return result
        return traced

    def observe(self, name, args, result):
        """Work counts that only the call's arguments or result reveal."""
        if name == "records.ingest":
            self.values["comments"] += len(result.comments)
        elif name == "graph.build_ccn":
            self.values["nodes"] = max(self.values["nodes"], result.n_nodes)
            self.values["edges"] = max(self.values["edges"], result.n_edges)
        elif name == "graph.components" and result:
            self.values["lcc_nodes"] = max(self.values["lcc_nodes"], len(result[0]))
        elif name == "korse.korse":
            self.values["thresholds"] += len(result.sweep_trace)
        elif name == "analysis.removal_curve":
            self.values["checkpoints"] += len(result.points)
        elif name == "features.extract_all":
            self.values["users"] += len(result)
        elif name == "nurse.train":
            self.values["example_epochs"] += len(args[0]) * args[1].epochs
        elif name == "centrality.weighted_betweenness":
            self.values["sources"] += args[0].n_nodes
        elif name.endswith(".embed_text"):
            self.texts.add(args[1])


def install(recorder: Recorder):
    """Replace the layers' public functions with recording wrappers."""
    import collusioncore  # noqa: F401 - loads every layer module

    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"collusioncore.{layer}"]
        for attr, fn in inspect.getmembers(module, inspect.isfunction):
            if not attr.startswith("_") and fn.__module__ == module.__name__:
                wrappers[id(fn)] = recorder.wrap(f"{layer}.{attr}", fn)
    for qualified in METHODS:
        layer, cls, attr = qualified.split(".")
        owner = getattr(sys.modules[f"collusioncore.{layer}"], cls)
        setattr(owner, attr, recorder.wrap(qualified, getattr(owner, attr)))
    for name, module in list(sys.modules.items()):
        if name == "collusioncore" or name.startswith("collusioncore."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])


def wrapper_cost() -> float:
    """Measured seconds a traced wrapper adds to one call."""
    def noop(*args):
        return None

    traced = Recorder().wrap("calibration", noop)
    best = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            fn(1)
        best.append(time.perf_counter() - start)
    return max(0.0, (best[1] - best[0]) / CALIBRATION_CALLS)


def main(plan_path) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    recorder = Recorder()
    install(recorder)
    from collusioncore import cli

    os.chdir(plan["cwd"])
    codes = []
    cpu = time.process_time()
    start = time.perf_counter()
    for argv in plan["commands"]:
        codes.append(cli.main(argv))
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    result = {"codes": codes, "wall_s": wall, "cpu_s": cpu, "spans": recorder.spans,
              "counts": dict(recorder.counts), "values": dict(recorder.values),
              "distinct_texts": len(recorder.texts), "wrapper_cost_s": wrapper_cost()}
    with open(plan["spans"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
