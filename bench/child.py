"""One fadestream CLI invocation in a fresh process, for bench/run.py.

    python3 bench/child.py MODE [CLI ARGS...]

MODE is one of
  probe  import fadestream.cli and exit (a set-up sample);
  run    call fadestream.cli.main(CLI ARGS) untraced, while a timer signal
         runs a fixed host-speed probe every PROBE_PERIOD_S (see HostProbe);
  trace  the same, with a span around every layer call that engine and cli
         make (see HOOKS), and per-experiment call counts;
  pool   the same, with spans around the engine's process pool only.

The last line of standard output is one JSON object.  "imported" is the
CLOCK_MONOTONIC stamp taken once `import fadestream.cli` completes; the
parent subtracts its own stamp taken before the spawn, which gives set-up
time from process start.  PYTHONPATH must put the checkout's src first.
"""

import contextlib
import functools
import json
import resource
import signal
import sys
import time

import fadestream.cli as cli  # the set-up being timed

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import numpy as np  # noqa: E402  (already loaded by cli)

from fadestream import bounds, channel, engine, schemes  # noqa: E402  (already loaded by cli)

PROBE_PERIOD_S = 0.05
# the probe's fixed work: the kind of work the program's sampler does, on
# streams of the probe's own, so that the program's draws are untouched
PROBE_KEYS = np.array([[0x5EED, i] for i in range(16)], dtype=np.uint64)

# (module, attribute, span name, kind).  Kinds: "span" times the call;
# "kernel" times it unless another kernel is already open (aje_counts calls
# je_counts); "count" only counts calls, because the call is per trial.
HOOKS = (
    (cli, "main", "cli.main", "span"),
    (engine, "run_experiment", "engine.run_experiment", "span"),
    (cli, "run_experiment", "engine.run_experiment", "span"),
    (engine, "_chunk_histogram", "engine.chunks", "count"),
    (engine, "_sample_gain_block", "channel.sample", "span"),
    (engine, "trial_stream", "channel.trial_stream", "count"),
    (channel.FadingModel, "sample_gains", "channel.sample_gains", "count"),
    (engine, "capacities", "channel.capacities", "span"),
    (engine, "ergodic_capacity", "channel.ergodic_capacity", "span"),
    (cli, "ergodic_capacity", "channel.ergodic_capacity", "span"),
    (schemes, "mt_counts", "schemes.mt_counts", "kernel"),
    (schemes, "je_counts", "schemes.je_counts", "kernel"),
    (schemes, "aje_counts", "schemes.aje_counts", "kernel"),
    (schemes, "ts_counts", "schemes.ts_counts", "kernel"),
    (schemes, "gts_counts", "schemes.gts_counts", "kernel"),
    (schemes, "st_counts", "schemes.st_counts", "kernel"),
    (engine, "informed_counts", "bounds.informed_counts", "kernel"),
)

# the kernel each scheme configuration must reach once per chunk
KERNEL_OF = {
    schemes.MT: "schemes.mt_counts",
    schemes.JE: "schemes.je_counts",
    schemes.AJE: "schemes.aje_counts",
    schemes.TS: "schemes.ts_counts",
    schemes.GTS: "schemes.gts_counts",
    schemes.ST: "schemes.st_counts",
    bounds.InformedBound: "bounds.informed_counts",
}
KERNELS = tuple(KERNEL_OF.values())


class Tracer:
    """In-memory span totals: inclusive time, self time, calls, work items."""

    def __init__(self):
        self.total = {}
        self.self_time = {}
        self.calls = {}
        self.items = {}
        self.stack = []  # open spans: [name, kind, time covered by child spans]
        self.points = 0  # run_experiment calls
        self.problems = []

    def _add(self, table, name, value):
        table[name] = table.get(name, 0) + value

    def wrap(self, name, kind, fn):
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[name] = self.calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if kind == "kernel" and any(frame[1] == "kernel" for frame in self.stack):
                return fn(*args, **kwargs)
            frame = [name, kind, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][2] += elapsed
                self._add(self.total, name, elapsed)
                self._add(self.self_time, name, elapsed - frame[2])
                self._add(self.calls, name, 1)
            self._add(self.items, name, _work_items(name, args, result))
            return result
        return timed

    def experiment(self, fn):
        """Around run_experiment: check the calls it made against its chunking."""

        @functools.wraps(fn)
        def checked(spec, *args, **kwargs):
            before = dict(self.calls)
            result = fn(spec, *args, **kwargs)
            seen = {k: v - before.get(k, 0) for k, v in self.calls.items()}
            chunks = len(engine._chunk_ranges(spec.trials, spec.m_total))
            kernel = KERNEL_OF[type(spec.scheme)]
            expected = {
                "engine.chunks": chunks,
                "channel.sample": chunks,
                "channel.trial_stream": spec.trials,
                "channel.sample_gains": spec.trials,
                "channel.capacities": 0 if kernel == "schemes.st_counts" else chunks,
            }
            expected.update({k: chunks if k == kernel else 0 for k in KERNELS})
            for key, want in expected.items():
                if seen.get(key, 0) != want:
                    self.problems.append(
                        f"{kernel} trials={spec.trials} M={spec.m_total}: "
                        f"{key} called {seen.get(key, 0)} times, expected {want}"
                    )
            self.points += 1
            return result
        return checked

    def pool_class(self, pool_cls):
        tracer = self

        class TracedPool:
            """Counts pool start-ups and times each pool's lifetime in the parent."""

            def __init__(self, *args, **kwargs):
                tracer._add(tracer.calls, "engine.pool_starts", 1)
                self._start = time.perf_counter()
                self._pool = pool_cls(*args, **kwargs)

            def __enter__(self):
                self._pool.__enter__()
                return self._pool

            def __exit__(self, *exc):
                try:
                    return self._pool.__exit__(*exc)
                finally:
                    tracer._add(tracer.total, "engine.pool", time.perf_counter() - self._start)

        return TracedPool

    def summary(self):
        return {
            "total": self.total,
            "self": self.self_time,
            "calls": self.calls,
            "items": self.items,
            "points": self.points,
            "problems": self.problems,
        }


class HostProbe:
    """How fast the host runs fixed work while the program runs.

    The host's speed drifts by tens of percent in phases of seconds to
    minutes (other tenants of the machine), and it slows CPU time as much as
    wall time.  Every PROBE_PERIOD_S a SIGALRM handler runs the same small
    piece of work on the program's own thread twice and records the thread
    CPU time of the second pass, which being preempted does not inflate.
    The first pass refills the caches that the program (or a pool worker
    sharing the CPU) evicted, so that the sample measures the host rather
    than the program's memory use.  The parent scales the program's time by
    these samples.
    """

    def __init__(self):
        self.samples = 0
        self.cpu_s = 0.0
        self.wall_s = 0.0

    @staticmethod
    def _work():
        acc = 0.0
        for key in PROBE_KEYS:
            gains = -np.log1p(-np.random.Generator(np.random.Philox(key=key)).random(100))
            acc += float(np.cumsum(np.log2(1.0 + gains))[-1])
        return acc

    def sample(self, *_signal_args):
        wall = time.perf_counter()
        self._work()
        cpu = time.thread_time()
        self._work()
        self.cpu_s += time.thread_time() - cpu
        self.wall_s += time.perf_counter() - wall
        self.samples += 1

    def __enter__(self):
        self.sample()  # warm-up, not counted: the first call allocates
        self.samples, self.cpu_s, self.wall_s = 0, 0.0, 0.0
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _work_items(name, args, result):
    """Trials sampled by the sampler; trials x blocks seen by a kernel."""
    if name == "channel.sample":
        return int(result.shape[0])
    if name in KERNELS:
        return int(args[0].shape[0]) * int(args[0].shape[1])
    return 0


def install(tracer, mode):
    engine.ProcessPoolExecutor = tracer.pool_class(engine.ProcessPoolExecutor)
    if mode == "pool":
        return
    wrapped = {}
    for owner, attr, name, kind in HOOKS:
        original = getattr(owner, attr)
        key = (id(original), name)
        if key not in wrapped:  # cli and engine share one function object
            wrapped[key] = tracer.wrap(name, kind, original)
            if name == "engine.run_experiment":
                wrapped[key] = tracer.experiment(wrapped[key])
        setattr(owner, attr, wrapped[key])


def main():
    mode, argv = sys.argv[1], sys.argv[2:]
    report = {
        "imported": IMPORTED,
        "module": cli.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
    }
    if mode != "probe":
        tracer = Tracer() if mode in ("trace", "pool") else None
        if tracer is not None:
            install(tracer, mode)
        host = HostProbe() if mode == "run" else None
        with host or contextlib.nullcontext():
            start = time.perf_counter()
            report["exit"] = cli.main(argv)
            report["main_s"] = time.perf_counter() - start
        if host is not None:
            in_main_s = host.wall_s
            host.sample()  # one sample at least, however short the run
            report["host"] = {"samples": host.samples, "cpu_s": host.cpu_s, "in_main_s": in_main_s}
        report["rss_kb"] = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        if tracer is not None:
            report["trace"] = tracer.summary()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
