"""The repository benchmark: six workloads driven through the program's
public functions, end-to-end metrics from an untraced pass and per-layer
metrics from a pass traced from outside.  Entry point: ``../run.py``."""
