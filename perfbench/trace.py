"""Traced launcher: run ``repro`` with spans around its public calls.

Usage (from the repository root)::

    python3 perfbench/trace.py SPANS_DIR [repro arguments...]

It installs an import hook, then calls ``repro.cli.main`` with the
given arguments. As each module named in :data:`TARGETS` finishes
executing, the hook wraps the listed functions and methods in place,
before any other module can import them, so every caller sees the
wrapper. Each call records one span: name, start, end, parent span,
request id, and a few attributes read from the arguments and the
result. Spans stay in memory and are written to
``SPANS_DIR/spans-<pid>.jsonl`` when the process exits. Forked pool
workers are terminated rather than exited, so a worker appends its
spans each time its outermost span closes.

Times are ``time.perf_counter()``, which on Linux is the system-wide
monotonic clock, so spans from different processes share one time
axis. The first line of each file is the process's start record, with
the time ``repro.cli.main`` was entered.
"""

import atexit
import importlib.abc
import inspect
import json
import os
import sys
import threading
import time

#: module -> [(attribute path, span name)]. Wrapped right after the
#: module executes; a missing attribute is skipped, so the benchmark
#: keeps running when a later change removes one.
TARGETS = {
    "repro.lang.compiler": [("compile_source", "lang.compile")],
    "repro.asm.assembler": [("assemble", "asm.assemble")],
    "repro.harness.runner": [("decoded_program", "runner.decode"),
                             ("program_hash", "runner.program_hash")],
    "repro.core.pipeline": [("PipelineSim.run", "core.run")],
    "repro.core.stats": [("SimStats.from_dict", "core.stats_from_dict")],
    "repro.workloads.base": [("Workload.verify", "workloads.verify")],
    "repro.harness.diskcache": [
        ("DiskResultCache.__init__", "diskcache.load"),
        ("DiskResultCache.get", "diskcache.get"),
        ("DiskResultCache.put", "diskcache.put")],
    "repro.obs.ledger": [("RunLedger.append_all", "ledger.append"),
                         ("RunLedger.records", "ledger.read")],
    "repro.obs.report": [("run_report", "report.run")],
    "repro.harness.parallel": [("run_grid", "parallel.grid"),
                               ("ProcessPoolExecutor", "parallel.pool")],
    "repro.service.server": [("JobService.submit", "service.submit")],
}


class Tracer:
    """In-memory span store for one process."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.spans = []
        self.local = threading.local()
        self.next_id = 0
        self.lock = threading.Lock()
        self.forked = False
        self.start_record = {"kind": "start", "pid": os.getpid(),
                             "main": None}

    def reset_in_child(self):
        self.spans = []
        self.local = threading.local()
        self.lock = threading.Lock()
        self.forked = True
        self.start_record = {"kind": "start", "pid": os.getpid(),
                             "main": None, "forked": True}
        self.write([self.start_record])

    def stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def new_id(self):
        with self.lock:
            self.next_id += 1
            return f"{os.getpid()}-{self.next_id}"

    def write(self, records):
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def flush(self):
        spans, self.spans = self.spans, []
        if spans:
            self.write(spans)

    def wrap(self, name, func, attrs):
        """``func`` recording one span per call; ``attrs(args, kwargs,
        result)`` adds attributes when the call returns."""
        tracer = self
        try:
            signature = inspect.signature(func)
        except (TypeError, ValueError):
            signature = None
        if signature is None or "request_id" not in signature.parameters:
            signature = None

        def wrapper(*args, **kwargs):
            stack = tracer.stack()
            parent = stack[-1] if stack else None
            request_id = (
                signature.bind_partial(*args, **kwargs).arguments.get(
                    "request_id") if signature is not None else None)
            if request_id is None and parent is not None:
                request_id = parent["r"]
            span = {"kind": "span", "n": name, "id": tracer.new_id(),
                    "p": parent["id"] if parent is not None else None,
                    "pid": os.getpid(), "r": request_id, "a": {}}
            stack.append(span)
            span["s"] = time.perf_counter()
            result = error = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span["e"] = time.perf_counter()
                stack.pop()
                if error is not None:
                    span["a"]["error"] = type(error).__name__
                elif attrs is not None:
                    # Reading an attribute must never change the outcome.
                    try:
                        span["a"].update(attrs(args, kwargs, result))
                    except Exception as exc:  # noqa: BLE001
                        span["a"]["attr_error"] = repr(exc)
                tracer.spans.append(span)
                if tracer.forked and not stack:
                    tracer.flush()

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__qualname__ = getattr(func, "__qualname__", name)
        wrapper.__doc__ = getattr(func, "__doc__", None)
        return wrapper


# ---------------------------------------------------------- attributes

def _stats_attrs(args, kwargs, stats):
    return {"cycles": stats.cycles, "committed": stats.committed,
            "dcache_misses": stats.cache_misses,
            "su_stall_cycles": stats.su_stall_cycles,
            "fetch_idle_cycles": stats.fetch_idle_cycles}


def _cache_put_attrs(args, kwargs, result):
    cache = args[0]
    try:
        size = os.stat(cache.path).st_size if cache.autosave else 0
    except OSError:
        size = 0
    return {"bytes": size}


def _grid_attrs(args, kwargs, results):
    request_ids = kwargs.get("request_ids") or {}
    return {"jobs": len(results), "request_ids": sorted(
        request_ids.values())}


def _submit_attrs(args, kwargs, result):
    status, doc, _ = result
    return {"status": status, "coalesced": bool(doc.get("coalesced"))}


def _pool_attrs(args, kwargs, result):
    return {"workers": kwargs.get("max_workers",
                                  args[0] if args else None)}


ATTRS = {
    "core.run": _stats_attrs,
    "workloads.verify": lambda a, k, ok: {"ok": bool(ok)},
    "diskcache.get": lambda a, k, payload: {"hit": payload is not None},
    "diskcache.put": _cache_put_attrs,
    "ledger.append": lambda a, k, count: {"records": count or 0},
    "ledger.read": lambda a, k, records: {"records": len(records)},
    "parallel.grid": _grid_attrs,
    "parallel.pool": _pool_attrs,
    "service.submit": _submit_attrs,
}


# ------------------------------------------------------------- wrapping

def _wrap_engine_subclasses(tracer, cls):
    """Wrap ``run`` on every later subclass of ``cls`` that defines it
    (config-specialized engines are generated at run time)."""
    original = cls.__dict__.get("__init_subclass__")

    def init_subclass(sub, **kwargs):
        if original is not None:
            original.__func__(sub, **kwargs)
        else:
            super(cls, sub).__init_subclass__(**kwargs)
        if "run" in sub.__dict__:
            sub.run = tracer.wrap("core.run", sub.__dict__["run"],
                                  ATTRS["core.run"])

    cls.__init_subclass__ = classmethod(init_subclass)


def wrap_module(tracer, module):
    for path, name in TARGETS.get(module.__name__, ()):
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = (owner.__dict__.get(attr) if owner_name
               else getattr(owner, attr, None))
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(name, raw.__func__,
                                              ATTRS.get(name)))
        else:
            wrapped = tracer.wrap(name, raw, ATTRS.get(name))
        setattr(owner, attr, wrapped)
        if name == "core.run":
            _wrap_engine_subclasses(tracer, owner)


class _Hook(importlib.abc.MetaPathFinder):
    """Wraps a target module's functions right after it executes."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.busy = set()

    def find_spec(self, fullname, path, target=None):
        if fullname not in TARGETS or fullname in self.busy:
            return None
        self.busy.add(fullname)
        try:
            from importlib.util import find_spec
            spec = find_spec(fullname)
        finally:
            self.busy.discard(fullname)
        if spec is None or spec.loader is None:
            return spec
        loader = spec.loader
        exec_module = loader.exec_module
        tracer = self.tracer

        class Loader(importlib.abc.Loader):
            def create_module(self, spec):
                return loader.create_module(spec)

            def exec_module(self, module):
                exec_module(module)
                wrap_module(tracer, module)

        spec.loader = Loader()
        return spec


def main(argv):
    out_dir, args = argv[0], argv[1:]
    tracer = Tracer(out_dir)
    sys.meta_path.insert(0, _Hook(tracer))
    os.register_at_fork(after_in_child=tracer.reset_in_child)

    def finish():
        tracer.write([tracer.start_record])
        tracer.flush()

    atexit.register(finish)
    from repro.cli import main as repro_main
    tracer.start_record["main"] = time.perf_counter()
    return repro_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
