"""Loader of the compiled core, `_core.c`: the forward marches, the
backward sweep that marches the dual over a block of a run's states and
reduces each interval's error breakdown as soon as its sample exists
(`march_dual`, called once per block with w carried between calls),
the dual's substep plan from each end state's max|a| (`dual_substeps`),
the wave speeds max|f'| of rows of states (`row_speeds`), the planner's
two walks, the `%.5e` text of the CSVs (`format_rows`) and the inflow
table's departure filter.  f'(u) lives there alone: the dual's
coefficient, the breakdown's linearization and every wave speed are
formed in C from the states and the flux's (kind, a).  Each function
takes exactly the arguments `_SIGNATURES` declares: ctypes alone would
pass extra ones on unchecked.

The library is built on first use with the system C compiler,

    cc -O2 -ffp-contract=off -shared -fPIC -DMAX_LANES=<lanes>

and cached as `_core.so` in this package's `__pycache__`, or, when that
directory cannot be written, in `$XDG_CACHE_HOME/shockstep` (by default
`~/.cache/shockstep`).  Beside it `_core.so.key` holds the compile
command and the source bytes it was built from; the library is rebuilt
when either differs.  -ffp-contract=off (and no -march, no -ffast-math)
keeps every a*b + c two roundings: a fused multiply-add would move the
last bits of the states away from the numpy formulas the kernels
transcribe.  <lanes> is this CPU's vector width, 8 doubles with
AVX-512F, 4 with AVX2, 2 otherwise, and the source compiles for that
instruction set; each lane of its vector loops does one cell's
operations, so the width changes no bit.

Nothing is loaded or built at import; `lib()` does it on first use.
"""
from __future__ import annotations

import ctypes
import os

import numpy as np

SOURCE = os.path.join(os.path.dirname(__file__), "_core.c")
CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
COMPILE = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
LONG = np.dtype(f"i{ctypes.sizeof(ctypes.c_long)}")   # the kernels' `long`

# reason codes the marches set (see _core.c)
CFL, NONFINITE_STATE, NONFINITE_RESIDUAL, SINGULAR, STALLED, NO_MEMORY = range(1, 7)
STOP_RULES = {1: "tol", 2: "floor"}

_long, _int, _double, _ptr = (ctypes.c_long, ctypes.c_int, ctypes.c_double,
                              ctypes.c_void_p)
_SIGNATURES = {
    "march_explicit": (_long, [_long, _long, _double, _ptr, _ptr, _int,
                               _double, _ptr, _ptr, _ptr, _ptr]),
    "march_implicit": (_long, [_long, _long, _double, _ptr, _ptr, _int,
                               _double, _double, _long, _ptr, _ptr, _ptr,
                               _ptr, _ptr, _ptr, _ptr]),
    "march_dual": (_long, [_long, _long, _double, _ptr, _int, _double, _ptr,
                           _ptr, _ptr, _double, _ptr, _ptr, _ptr, _ptr, _ptr,
                           _ptr, _ptr, _ptr]),
    "dual_substeps": (_long, [_long, _double, _double, _ptr, _ptr, _ptr, _ptr]),
    "row_speeds": (None, [_long, _long, _ptr, _ptr, _int, _double, _ptr,
                          _ptr]),
    "dgtsv": (_long, [_long, _ptr, _ptr, _ptr, _ptr]),
    "lanes": (_long, []),
    "format_rows": (_long, [_long, _long, _ptr, _ptr, _long, _ptr]),
    "propose_walk": (_long, [_long, _ptr, _ptr, _double, _ptr, _ptr]),
    "lay_steps": (_long, [_long, _ptr, _ptr, _ptr, _double, _double, _double,
                          _ptr, _ptr]),
    "departure_filter": (None, [_long, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr]),
}

_lib = None


def lib():
    """The loaded library, built on the first call if the cache is stale."""
    global _lib
    if _lib is None:
        user = (os.environ.get("XDG_CACHE_HOME")
                or os.path.join(os.path.expanduser("~"), ".cache"))
        _lib = load(SOURCE, CACHE, os.path.join(user, "shockstep"))
    return _lib


def lanes() -> int:
    """Doubles per vector instruction in the library's vector loops."""
    return lib().lanes()


def _host_lanes() -> int:
    """8 doubles per vector with AVX-512F, 4 with AVX2, else 2, as the
    flags of /proc/cpuinfo list them (only when the OS saves the wider
    registers).  Compilers other than GCC on x86-64 build 2 anyway."""
    try:
        with open("/proc/cpuinfo") as fh:
            flags = next((ln.split() for ln in fh if ln.startswith("flags")), [])
    except OSError:
        flags = []
    return 8 if "avx512f" in flags else 4 if "avx2" in flags else 2


def format_rows(cols, modes=None, mode_at=0) -> bytes:
    """The CSV body of the equal-length float64 columns `cols`: one line
    per row, each value exactly as Python's `'%.5e' % value` spells it
    (nan, inf and -inf included), joined by commas.  With `modes`, each
    row's mode word, explicit (0) or implicit (1), goes before column
    `mode_at`."""
    x = np.stack(cols)
    ncol, n = x.shape
    m = None
    if modes is not None:
        m = np.ascontiguousarray(modes, dtype=np.int8)
        if m.shape != (n,) or not 0 <= mode_at < ncol:
            raise ValueError(f"need {n} modes placed before one of {ncol} columns")
    out = np.empty(n * (14 * ncol + 10), np.uint8)
    size = lib().format_rows(n, ncol, ptr(x), None if m is None else ptr(m, np.int8),
                             mode_at, ptr(out, np.uint8))
    if size < 0:
        raise ValueError(f"mode {m[-size - 1]} of row {-size - 1} is neither "
                         f"explicit (0) nor implicit (1)")
    return out[:size].tobytes()


def _read(path: str):
    """The bytes of `path`, or None when it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def load(source: str, *caches: str):
    """Load `_core.so` from the first of `caches` whose `_core.so.key`
    matches the compile command and `source`'s bytes; otherwise build it
    into the first of them that can be written.  Library and key are
    written through a temporary name and `os.replace`, the library
    first, so a concurrent reader never pairs a new key with an old
    library."""
    code = _read(source)
    if code is None:
        raise ImportError(f"cannot read the compiled-core source {source}")
    cmd = (*COMPILE, f"-DMAX_LANES={_host_lanes()}")
    key = " ".join(cmd).encode() + b"\n" + code
    sos = [os.path.join(cache, "_core.so") for cache in caches]
    so = next((so for so in sos
               if os.path.exists(so) and _read(so + ".key") == key), None)
    if so is None:
        refused = []
        for so in sos:
            try:
                _build(source, cmd, key, so)
                break
            except OSError as err:
                refused.append(f"{os.path.dirname(so)} ({err.strerror or err})")
        else:
            raise ImportError("no writable cache for shockstep's compiled core: "
                              + "; ".join(refused))
    core = ctypes.CDLL(so)
    for name, (res, args) in _SIGNATURES.items():
        fn = getattr(core, name)
        fn.restype, fn.argtypes = res, args
        setattr(core, name, _exact(name, fn, len(args)))
    return core


def _exact(name: str, fn, count: int):
    """`fn`, refusing a call with other than its `count` arguments: ctypes
    refuses too few, but passes extra ones on as to a C varargs function,
    so a stale caller would run the kernel on shifted arguments."""
    def call(*args):
        if len(args) != count:
            raise TypeError(f"{name}() takes {count} arguments ({len(args)} given)")
        return fn(*args)
    return call


def _build(source: str, cmd: tuple, key: bytes, so: str):
    """Compile `source` into `so` with `cmd`; an OSError means the cache
    directory cannot be written, any failure of the compiler is an
    ImportError."""
    import subprocess
    import tempfile
    cache = os.path.dirname(so)
    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    cmd = [*cmd, "-o", tmp, source]
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as err:
            raise ImportError(f"building shockstep's compiled core needs a C "
                              f"compiler: `{' '.join(cmd)}` failed: {err}") from err
        if proc.returncode:
            raise ImportError(f"`{' '.join(cmd)}` exited {proc.returncode}:\n"
                              f"{proc.stderr}")
        os.replace(tmp, so)
        fd, tmp = tempfile.mkstemp(suffix=".key", dir=cache)
        with os.fdopen(fd, "wb") as fh:
            fh.write(key)
        os.replace(tmp, so + ".key")
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def ptr(a, dtype=np.float64) -> int:
    """Address of a C-contiguous `dtype` array's data, the kernels' array
    argument.  The address holds no reference to `a`: bind a computed
    array (such as `TimePartition.steps`, rebuilt on each access) to a
    name for as long as the kernel runs."""
    if a.dtype != dtype:
        raise TypeError(f"the compiled core takes {np.dtype(dtype)} here, not {a.dtype}")
    if not a.flags.c_contiguous:
        raise ValueError("the compiled core takes C-contiguous arrays")
    return a.ctypes.data
