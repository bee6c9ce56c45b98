"""Run one ``spiox`` command in this (fresh) process, as a user's shell would.

    python3 perfbench/child.py RESULT.json SPANS.npz|- -- <spiox arguments>

Calls ``spiox.cli.main`` on the arguments and writes its exit code, peak
resident memory, BLAS thread count and a summary of the speed probe's samples
to RESULT.json. With a span path instead of ``-``, the speed probe is off, the
public calls into each spiox module are traced instead and the spans are
written there when the command ends.
"""

import ctypes
import json
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_kb():
    """Peak resident memory of this process image. ``ru_maxrss`` is not used
    first because Linux carries the parent's peak across fork and exec."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for ln in fh:
                if ln.startswith("VmHWM:"):
                    return int(ln.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class SpeedProbe:
    """Samples the speed of the CPU this process runs on while it works.

    Every PERIOD_S of wall time a SIGALRM handler times a fixed slice of work
    of the program's kind (interpreted Python around small numpy products and
    a Bessel K_nu evaluation, about 1 ms). On a shared host whose speed swings
    by up to a factor of two from second to second, the command's wall time
    divided by the probe's mean slowdown over the same seconds is its cost at
    a fixed reference speed (see ``REFERENCE_PROBE_S`` in run.py)."""

    PERIOD_S = 0.05
    ROUNDS = 24

    def __init__(self):
        import numpy as np
        from scipy.special import kv
        self.kv = kv
        self.A = np.random.default_rng(0).standard_normal((32, 32))
        self.v = np.ones(32)
        self.x = np.linspace(0.05, 3.0, 64)
        self.samples = []

    def sample(self, *_):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(self.ROUNDS):
            s += float((self.A @ self.v)[i & 31]) + 1e-9 * float(self.kv(0.8, self.x)[i & 63])
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.sample()  # first call warms the code paths; not kept
        self.samples.clear()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def summary(self):
        return {"probe_n": len(self.samples), "probe_s": sum(self.samples),
                "probe_inv_sum": sum(1.0 / s for s in self.samples)}


def main():
    result_path, span_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT.json SPANS.npz|- -- <spiox arguments>")
    probe = None
    if span_path == "-":
        with SpeedProbe() as probe:
            from spiox import cli
            rc = cli.main(argv)
    else:
        from spiox import cli
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        rc = tracer.span("cli.main", cli.main, (argv,), {})
        tracer.save(span_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc,
                   "peak_rss_kb": peak_rss_kb(),
                   "blas_threads": blas_threads(),
                   **(probe.summary() if probe else {})}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
