"""Print the interpreter's environment as JSON: versions, BLAS and its threads.

Run with the same environment variables as the workers, so the BLAS
thread count is the one the repetitions see.  Importing graphtv here also
writes its bytecode cache before the first timed repetition.
"""
import ctypes
import json
import os
import pathlib
import platform

import numpy
import scipy

import graphtv


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, read from the library; None if unknown."""
    libs = pathlib.Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": blas_threads(),
    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    "cpu_count": os.cpu_count(),
    "graphtv_file": graphtv.__file__,
}))
