"""Exact-arithmetic verification toolkit for a family of Enriques surfaces.

Modules:

* ``arith``      -- integer/rational utilities: ``rational``, the one intake of Q,
                    certified primality, factorization with an honest "incomplete"
                    flag, Legendre and Hilbert symbols, anisotropy of rank-4
                    diagonal forms over Q_p.
* ``towers``     -- iterated quadratic extension fields of Q with exact element
                    arithmetic, square testing, and validated automorphisms.
* ``presets``    -- the splitting towers K0, K1 and K of a coefficient triplet.
* ``funcfield``  -- rational functions in one variable over Q, a tower or another
                    function field; places of P1, residue fields, and exact
                    factoring over Q.
* ``conditions`` -- the eight sufficiency screens for a coefficient triplet
                    (a, b, c), plus nonsingularity and the search loop.
* ``lattice``    -- the rank-15 intersection lattice of the covering K3 surface,
                    its half-integer classes, Galois action, and F2 quotients.
* ``f2``         -- linear algebra over F2 on bitmask vectors: echelon forms,
                    kernels, fixed spaces, subspace enumeration, and the F2
                    Galois-module type of the lattice quotient and 2-torsion.
* ``actions``    -- the Galois action table: field automorphisms and the class
                    and point permutations they induce.
* ``twotorsion`` -- the 2-torsion of the Jacobian of the branch curve as a
                    Galois module: kernel/image of pullback, submodule scans.
* ``geometry``   -- equation-level checks: branch points on the defining conic,
                    equivariance of the projection to P1 x P1, genus bookkeeping.
* ``residues``   -- quaternion symbols over function fields, residue profiles,
                    corestriction expansion on split covers, Faddeev
                    reconstruction of symbol algebras from residue data.
* ``datafiles``  -- loader for the versioned JSON tables in ``enriq/data/``,
                    with the ``ENRIQ_DATA_DIR`` override, read once per
                    process.

The runtime needs the standard library only; numpy and sympy are test
oracles, in the ``test`` extra with pytest and hypothesis.

There is no command-line module yet, so ``pyproject.toml`` declares no
console script; the ``enriq`` script comes back with ``cli.py``, the
certificate entry point of ROADMAP item 2.
"""

__version__ = "0.1.0"
