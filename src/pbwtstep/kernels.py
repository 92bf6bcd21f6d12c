"""The backend name that perfbench reports print; no package module imports this one."""

BACKEND = "numpy"  # named in benchmark reports
