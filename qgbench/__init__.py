"""qgraph benchmark: workloads, tracing and the command that runs them."""
