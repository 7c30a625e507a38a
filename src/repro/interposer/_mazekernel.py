"""The kernel loader under its old path: ``perfbench/flowwork.py``
loads (or first compiles) the kernel through it during set-up.  The
kernel itself lives in :mod:`repro._kernel`."""

from .._kernel import load_kernel

__all__ = ["load_kernel"]
