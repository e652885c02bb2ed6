"""Alias of the kernel module for ``perfbench/tracer.py``, which imports
``gammaseq._backend.kernels``; no package module imports it."""

from . import _kernels_py as kernels  # noqa: F401
