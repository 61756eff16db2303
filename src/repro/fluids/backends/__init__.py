"""The fused NumPy kernels of the numerical methods.

:class:`~repro.fluids.lbm.LBMethod` and :class:`~repro.fluids.fd.FDMethod`
each build one :class:`~.numpy_backend.NumpyBackend` at construction and
run their hot kernels (LB collision/streaming/moments, the FD
velocity/density updates, the fourth-order filter) through it; wall
rules and openings stay in the methods.
"""
