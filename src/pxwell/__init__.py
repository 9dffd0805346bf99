"""Numerical laboratory for nonlocal Neumann diffusion with variable exponents.

Simulates u_t = div(|grad u|^{p(x)-2} grad u) + |u|^{r(x)-2} u - <source mean>
on an interval or rectangle with zero Neumann flux, evaluates the associated
potential-well functionals, predicts global existence versus finite-time
escape from the initial datum, and verifies the closed-form decay/growth
envelopes and the modular Poincare counterexample at desk scale.

The package root exports no names: import each one from its module, as in
`from pxwell.solver import simulate`.  A module's `__all__` is the one list
of its public names.
"""
