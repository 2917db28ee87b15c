"""Kernel adaptive filtering lab.

Online Gram-preconditioned kernel LMS filtering over a fixed dictionary,
its transient/steady-state MSE theory with mean and mean-square stability
tests, closed-form Gaussian kernel moments with Monte-Carlo oracles, and a
seeded simulation harness that checks theory against experiment.
"""

__version__ = "0.1.0"
