"""The hex-repro benchmark: workloads, spans, output checks and statistics (see perfbench/README.md)."""
