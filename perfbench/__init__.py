"""Benchmark of the repro package.

``python3 perfbench/run.py --workload {tables,sweep,serve} --seed N
--seconds S --trace {0,1}`` measures one workload (see
:mod:`perfbench.workloads` for why each exists) and prints its result as
the last stdout line. ``python3 -m pytest perfbench/tests`` runs the
benchmark's own tests.
"""
