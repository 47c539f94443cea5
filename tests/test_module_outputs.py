"""The outputs of both F2 Galois modules, pinned by sha256.

The lattice quotient and the 2-torsion image share one module type
(``f2.GaloisModule``).  The digest below was recorded when each still had
its own implementation: the lattice suite with and without the witness
towers, every row's action on the quotient, the quotient invariants along
the chain of row-table prefixes, the 2-torsion actions and fixed space,
every invariant submodule of index 1 to 32, and the scan report.
"""

import hashlib
import json

from enriq import actions, lattice, twotorsion

FINGERPRINT_SHA256 = "22c0452f62db0a69ec7862b0fea6fcce8cbe4bc9ed3177cb7bcd52c081958deb"


def test_module_outputs_are_pinned(k_tower_witness, k1_tower_witness):
    q = lattice.quotient_F2()
    m = twotorsion.pullback_image_module()
    rows = [r.name for r in actions.load_rows()]
    chain = [lattice.invariants_under(rows[:j]) for j in range(len(rows) + 1)]
    fingerprint = {
        "verify_suite_towers": lattice.verify_suite(
            k_tower_witness, k1_tower_witness.step_names()),
        "verify_suite_bare": lattice.verify_suite(),
        "quotient_actions": {n: [q.act(n, 1 << i) for i in range(q.dimension)]
                             for n in rows},
        "invariants_chain": [[list(s.basis_masks), [list(x) for x in s.basis_names]]
                             for s in chain],
        "module_actions": {n: [m.act(n, 1 << i) for i in range(m.dimension)]
                           for n in rows},
        "module_fixed": m.fixed_subspace(),
        "submodules": {
            str(index): [[list(s.basis), [str(c) for c in s.classes], s.index]
                         for s in twotorsion.enumerate_invariant_submodules(m, index)]
            for index in (1, 2, 4, 8, 16, 32)
        },
        "scan_report": twotorsion.scan_report(),
    }
    text = json.dumps(fingerprint, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == FINGERPRINT_SHA256
