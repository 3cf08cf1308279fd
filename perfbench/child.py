"""One benchmark pass in a fresh interpreter.

Usage: python child.py ROOT < request.json

Sets up (imports palfree.cli from ROOT/src, builds the parser, loads the
shipped morphisms), prints "ready", then reads a JSON request
{"jobs": [[name, argv], ...], "trace": bool, "trace_out": path or null}
from stdin, runs every job through palfree.cli.run_command one at a time
and prints one JSON line with per-job wall/CPU seconds, the host-speed
probe samples of each job, the rendered certificates, the process's peak
RSS and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shlex
import signal
import sys
import traceback
from time import perf_counter, process_time


def setup(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from palfree import cli
    from palfree.morphisms import load_morphism, shipped_morphisms
    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"palfree imported from {cli.__file__}, not from {src}")
    cli.build_parser()
    for name in shipped_morphisms():
        load_morphism(name)
    return cli


PROBE_PERIOD_S = 0.05


def probe() -> float:
    """Seconds for a fixed stdlib-only task (dict and str churn, about
    0.5 ms).  It never calls palfree.  The garbage collector is off while
    it runs, so a collection of palfree's heap neither lands in a sample
    nor is subtracted from the job; it runs after the probe, in the job."""
    gc_on = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        d = {}
        for i in range(2000):
            d[str(i)] = i * i
        sum(d.values())
        return perf_counter() - t
    finally:
        if gc_on:
            gc.enable()


class HostSpeed:
    """Probe samples taken before a job, every PROBE_PERIOD_S during it
    (from SIGALRM) and after it; run.py rescales the job's time by them."""

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        self.samples.append(probe())

    def start(self) -> None:
        self.samples = [probe()]
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> float:
        """Disarm the timer; returns the seconds the probes since start()
        took, the first one excepted.  Call after() next."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return sum(self.samples[1:])

    def after(self) -> list[float]:
        self.samples.append(probe())
        return self.samples


def run_jobs(cli, jobs, speed: HostSpeed, tracer=None) -> list[dict]:
    """Run the jobs in order; wall and CPU seconds exclude the probes."""
    out = []
    for name, argv in jobs:
        if tracer is not None:
            tracer.job = name
        text, error = None, None
        speed.start()
        t, c = perf_counter(), process_time()
        try:
            text = cli.run_command(shlex.split(argv)).render()
        except Exception:  # a failing job is counted, the pass goes on
            error = traceback.format_exc()
            sys.stderr.write(f"job {name} raised:\n{error}")
        inside = speed.stop()
        wall, cpu = perf_counter() - t - inside, process_time() - c - inside
        out.append({"name": name, "wall_s": wall, "cpu_s": cpu,
                    "probe_s": speed.after(), "cert": text, "error": error})
    return out


def main() -> int:
    speed = HostSpeed()
    speed.start()
    cli = setup(sys.argv[1])
    speed.stop()
    setup_probes = speed.after()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    request = json.loads(sys.stdin.read())
    tracer = None
    if request["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    reply = {"jobs": run_jobs(cli, request["jobs"], speed, tracer),
             "setup_probe_s": setup_probes,
             "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        reply["layers"] = tracer.layer_metrics()
        if request.get("trace_out"):
            with open(request["trace_out"], "w") as fh:
                json.dump(tracer.dump(), fh)
    sys.stdout.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
