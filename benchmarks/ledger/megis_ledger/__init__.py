"""The perf ledger's own code: inputs, oracle, workloads, tracing.

Everything here drives ``repro`` through its public functions only; no
file outside ``benchmarks/ledger/`` knows the ledger exists.
"""
