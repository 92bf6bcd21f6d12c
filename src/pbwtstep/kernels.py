"""The kernel backend the build runs on: whole-column numpy operations."""

BACKEND = "numpy"  # named in benchmark reports
