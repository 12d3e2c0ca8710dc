"""Layered benchmark for the repro package (see perfbench/README.md)."""
