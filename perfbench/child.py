"""One benchmark operation in a fresh interpreter.

Usage: child.py TIMING_FILE TRACE(0|1) MODE TARGET [ARGS...]

MODE is "run" or "probe".  TARGET "cli" imports parastat.cli and calls
cli.main(ARGS) the way the console script does; any other TARGET names a
workload module in this directory whose run(seed) result is printed as JSON.
"probe" stops after the imports.  The child writes CLOCK_MONOTONIC stamps
(shared by every process on the host) to TIMING_FILE so that the parent can
split spawn-to-exit time into set-up and in-process time.

With TRACE=1 it wraps the public functions of every loaded parastat module
and writes the recorded spans (name, start, end, parent, counters) to
TIMING_FILE.spans when the operation ends.  TIMING_FILE then also gets the
tracer's own cost: installing the wrappers, the time they spend outside the
wrapped calls, and writing the spans.  Spans assume a single thread, which
holds while PARASTAT_THREADS is unset.
"""

import functools
import sys
import time

clock = time.monotonic

# Per-element helpers called in inner loops: their cost stays in the caller.
SKIP = {"rmatrix.as_map", "rmatrix.from_map", "gauge_sim.gauge_shift"}
LAYERS = ("rmatrix", "group_engine", "parafock", "game", "gauge_sim")


def _counters(name, fn):
    """Counter hook for a wrapped function: (args, kwargs, result) -> {metric: value}."""
    import inspect

    sig = inspect.signature(fn)

    def trials(a, k):
        return sig.bind(*a, **k).arguments["trials"]

    hooks = {
        "group_engine.enumerate_group": lambda a, k, res: {"group_engine.group_order": res.order},
        "group_engine.irreps": lambda a, k, res: {
            "group_engine.irreps.count": len(res),
            "group_engine.irreps.max_dim": max(r.dim for r in res)},
        "parafock.normal_form": lambda a, k, res: {
            "parafock.normal_form.peak_support": len(res.amps)},
        "gauge_sim.ground_state": lambda a, k, res: {
            "gauge_sim.ground_state.configs": res.group.order ** res.lattice.n_edges,
            "gauge_sim.ground_state.support": len(res.amps)},
        "game.noise_experiment": lambda a, k, res: {"game.trials": trials(a, k) * len(res)},
        "game.twist_experiment": lambda a, k, res: {"game.trials": trials(a, k)},
        "game.guessing_trials": lambda a, k, res: {"game.trials": trials(a, k)},
    }
    return hooks.get(name)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, counters]
        self.stack = []
        self.cost = [0.0]  # the tracer's own time: install, wrapper bookkeeping, write

    def wrap(self, name, fn):
        spans, stack, cost = self.spans, self.stack, self.cost
        count = _counters(name, fn)

        def traced(*args, **kwargs):
            e0 = clock()
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1:3] = t0, t1
            if count is not None:
                spans[idx][4] = count(args, kwargs, res)
            cost[0] += (clock() - t1) + (t0 - e0)
            return res

        return functools.wraps(fn)(traced)

    def install(self):
        """Replace each public function of the loaded parastat modules with a
        traced wrapper, in its own module and wherever it was imported."""
        import inspect

        mods = {n: sys.modules[f"parastat.{n}"] for n in LAYERS + ("cli",)
                if f"parastat.{n}" in sys.modules}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (not inspect.isfunction(fn) or attr.startswith("_") or name in SKIP
                        or fn.__module__ != mod.__name__):
                    continue
                if layer == "cli" and attr != "main":
                    continue
                wrapped[fn] = self.wrap(name, fn)
        for mod in list(mods.values()) + [sys.modules["parastat"]]:
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in wrapped:
                    setattr(mod, attr, wrapped[fn])


def main():
    timing_path, trace, mode, target, *args = sys.argv[1:]
    if target == "cli":
        from parastat import cli

        def call():
            return cli.main(args)
    else:
        import importlib
        import json

        module = importlib.import_module(target)

        def call():
            print(json.dumps(module.run(int(args[0])), sort_keys=True))
            return 0
    ready = clock()
    from pathlib import Path

    import parastat

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(parastat.__file__).resolve().is_relative_to(src):
        sys.exit(f"parastat imported from {parastat.__file__}, not from {src}")
    record = {"ready": ready}
    code = 0
    if mode == "run":
        tracer = Tracer() if trace == "1" else None
        if tracer:
            t = clock()
            tracer.install()
            tracer.cost[0] += clock() - t
        record["run"] = clock()
        try:
            code = call()
        finally:
            record["done"] = clock()
            if tracer:
                t = clock()
                _write(timing_path + ".spans", tracer.spans)
                record["trace_cost"] = tracer.cost[0] + clock() - t
            _write(timing_path, record)
    else:
        _write(timing_path, record)
    return code


def _write(path, record):
    import json

    with open(path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
