"""One benchmark repetition, run in a fresh interpreter.

    python3 child.py REQUEST.json

The request names the source tree, the CLI argv, whether to trace and where
to write the result. The child times `import mixheat.cli`, then calls the
public entry point `mixheat.cli.main(argv)` and times that call (wall clock
and this process's CPU time); the CLI's stdout goes to the parent through
the pipe. The result file holds the exit code, the timings, ru_maxrss, the
machine-speed samples and, when tracing, every span. Spans are written
once, after the call returns.

Machine speed. This machine is shared, and its speed drifts by tens of
percent over seconds to minutes. So the child times a fixed burst of work
that belongs to the benchmark, not to mixheat (`SpeedProbe.burst`):
CAL_BURSTS times right after the import, and, in an untraced call, once
every PROBE_PERIOD_S during the call from a SIGALRM handler, so the samples
cover the measured interval itself. The time spent in those bursts is
subtracted from the call's wall and CPU time; the parent divides by the
mean burst time to get times at a reference speed.
"""

import json
import os
import resource
import signal
import sys
import time

CAL_BURSTS = 20
PROBE_PERIOD_S = 0.25


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class SpeedProbe:
    """Times a fixed burst on demand and from a periodic SIGALRM handler.

    A burst (about 3 ms on an idle machine) mixes the three kinds of work the
    workloads do, in roughly equal time: an interpreter loop, small FFT round
    trips, and elementwise powers on a 256 KiB array. Python runs the handler
    between bytecodes of the main thread, so a burst never overlaps mixheat's
    own work; system calls it interrupts are retried (PEP 475). Its arrays
    take about 1 MiB, a constant part of ru_maxrss."""

    def __init__(self):
        import numpy
        from numpy.fft import fft, ifft  # bound before any tracing wraps numpy.fft
        self._fft, self._ifft, self._exp = fft, ifft, numpy.exp
        self._x = numpy.linspace(0.0, 1.0, 2048)
        self._y = numpy.linspace(0.0, 1.0, 1 << 15)
        self.walls, self.cpus = [], []

    def burst(self, *_):
        w0, c0 = time.perf_counter(), _cpu_s()
        acc = 0
        for i in range(10_000):
            acc += i * i
        x = self._x
        for _ in range(20):
            x = self._exp(-self._ifft(self._fft(x)).real ** 2)
        y = self._y
        for _ in range(6):
            y = (1.0 + y * y) ** -0.75
        self.walls.append(time.perf_counter() - w0)
        self.cpus.append(_cpu_s() - c0)

    def start(self):
        signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(request_path):
    with open(request_path) as fh:
        req = json.load(fh)
    sys.path.insert(0, req["src"])

    t0 = time.perf_counter()
    import mixheat.cli
    import_s = time.perf_counter() - t0

    probe = SpeedProbe()
    for _ in range(CAL_BURSTS):
        probe.burst()
    result = {"import_s": import_s, "import_burst_s": sum(probe.walls) / len(probe.walls)}

    if req.get("argv") is not None:
        tracer = None
        if req["trace"]:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import tracing
            tracer = tracing.Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
            tracing.install(tracer)
        probe.walls, probe.cpus = [], []
        if tracer is None:
            probe.start()
        cpu0 = _cpu_s()
        w0 = time.perf_counter()
        try:
            code = mixheat.cli.main(req["argv"])
        finally:
            wall_s = time.perf_counter() - w0
            cpu_s = _cpu_s() - cpu0
            probe.stop()
        sys.stdout.flush()
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        in_call = len(probe.walls)
        probe.burst()  # at least one sample, even for a call shorter than a period
        result.update(code=code, peak_rss_mb=peak_rss_mb,
                      wall_s=wall_s - sum(probe.walls[:in_call]),
                      cpu_s=cpu_s - sum(probe.cpus[:in_call]),
                      probes=in_call,
                      burst_s=sum(probe.walls) / len(probe.walls))
        if tracer is not None:
            result["run_id"] = tracer.run_id
            result["spans"] = tracer.spans
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(req["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
