"""Per-layer tracing for a traced pass: wrappers around public names.

Each name is wrapped where its caller looks it up: ``propagator`` imports
``ah_forward`` and ``boundary_mass_fraction`` by name, ``harness`` imports
``evolve`` and the storage writers by name, and the remaining callers go
through a module attribute (``diagnostics.sample``). A name that no longer
exists is recorded as absent and its metrics read 0.

Every FFT entry point of ``numpy.fft`` and ``scipy.fft`` (complex, real and
Hermitian) is counted, so a program that changes transform library or moves
to real transforms is still counted. Only the outermost FFT call is counted
when one entry point calls another. Wrapping must happen before the program
is imported, so that a ``from numpy.fft import fftn`` binds the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# (module, attribute path, key, kind). Observers are the calls evolve makes
# into other layers; their time is taken out of evolve's self time.
LAYER_SITES = (
    ("starknls.harness", "run_scenario", "run_scenario", None),
    ("starknls.harness", "evolve", "evolve", "evolve"),
    ("starknls.propagator", "ah_forward", "ah_forward", "observer"),
    ("starknls.propagator", "boundary_mass_fraction", "boundary_mass", "observer"),
    ("starknls.diagnostics", "sample", "sample", "observer"),
    ("starknls.diagnostics", "detect_blowup_and_fit", "fit", None),
    ("starknls.harness", "run_law_checks", "law_checks", None),
    ("starknls.ground_state", "petviashvili", "petviashvili", "solver"),
    ("starknls.config", "ScenarioConfig.build_initial_field", "build_initial_field", None),
    ("starknls.harness", "write_trajectory_csv", "storage", "writer"),
    ("starknls.harness", "write_report_csv", "storage", "writer"),
    ("starknls.harness", "write_plot_data", "storage", "writer"),
    ("starknls.harness", "write_snapshot", "storage", "writer"),
)


class Tracer:
    """Call counts, busy time and bytes per layer key, safe across threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.bytes = defaultdict(int)
        self.absent: list[str] = []

    def _add(self, key, seconds, calls=1, nbytes=0):
        with self._lock:
            self.seconds[key] += seconds
            self.calls[key] += calls
            self.bytes[key] += nbytes

    def _depth(self, name):
        return getattr(self._local, name, 0)

    def _enter(self, name):
        setattr(self._local, name, self._depth(name) + 1)

    def _leave(self, name):
        setattr(self._local, name, self._depth(name) - 1)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "bytes": dict(self.bytes),
            }

    # ---- FFT ----------------------------------------------------------------

    def _wrap_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth("fft"):
                return fn(*args, **kwargs)
            self._enter("fft")
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._leave("fft")
            nbytes = getattr(args[0], "nbytes", 0) if args else 0
            self._add("fft", elapsed, nbytes=nbytes + getattr(out, "nbytes", 0))
            return out

        return wrapper

    def install_fft(self) -> None:
        for module_name in ("numpy.fft", "scipy.fft"):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(module_name)
                continue
            for name in FFT_NAMES:
                fn = getattr(module, name, None)
                if fn is None:
                    self.absent.append(f"{module_name}.{name}")
                else:
                    setattr(module, name, self._wrap_fft(fn))

    # ---- program layers -----------------------------------------------------

    def _wrap_layer(self, fn, key, kind):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kind == "observer" and self._depth("observer"):
                return fn(*args, **kwargs)
            if kind in ("observer", "evolve"):
                self._enter(kind)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                if kind in ("observer", "evolve"):
                    self._leave(kind)
            nbytes = 0
            if kind == "writer":
                path = args[0] if args else kwargs.get("path")
                try:
                    nbytes = os.path.getsize(path)
                except (OSError, TypeError):
                    pass
            self._add(key, elapsed, nbytes=nbytes)
            if kind == "observer" and self._depth("evolve"):
                self._add("evolve_observers", elapsed, calls=1)
            if kind == "solver":
                self._add("solver_iterations", 0.0, calls=int(getattr(out, "iterations", 0)))
            return out

        return wrapper

    def install_layers(self) -> None:
        for module_name, path, key, kind in LAYER_SITES:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap_layer(fn, key, kind))
