"""Exact-arithmetic verification of the algebra behind log-transform
families of Stein handlebodies: integral quadratic forms, cokernel
homology, adjunction genus bounds, torus mapping classes, and d3
invariants.  All computation is over Z and Q; no floating point.
Import each name from its module."""
