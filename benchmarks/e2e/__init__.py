"""The repo's end-to-end benchmark (see README.md); run with
``python3 benchmarks/e2e/run.py``."""
