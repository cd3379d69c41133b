"""Symbolic verification of infinite families of partition congruences.

The pipeline: express the family's generating function data as eta quotients,
find a generator t whose zeros cancel every pole the U_ell operator can
introduce, build an algebra basis with one pole at infinity, tabulate the
fundamental images U_ell(A**i t**j g_k) with exact integer coefficients, and
iterate the operator with coefficients reduced mod ell**B while recording the
ell-adic valuation gained at each step.
"""
