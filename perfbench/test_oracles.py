"""Hand-checkable facts for the benchmark's oracles.

    python3 perfbench/test_oracles.py
"""

import unittest

import oracles
import workloads
from oracles import ONE, X, Y, Residues, bmul


class FiniteOracles(unittest.TestCase):
    def test_t2_bijections_are_normal_and_a_clot(self):
        t2 = oracles.full_transformations(2)
        bij = {t2.label_index["12"], t2.label_index["21"]}
        flags = oracles.FinitePair(t2.table, t2.identity, bij).flags()
        self.assertTrue(flags["normal"])
        self.assertTrue(flags["C0.5"])
        self.assertTrue(flags["D"])
        self.assertFalse(flags["Dl"] and flags["Dr"])

    def test_t3_bijections_are_homogeneous_on_neither_side(self):
        t3 = oracles.full_transformations(3)
        bij = {i for i, f in enumerate(t3.maps) if len(set(f)) == 3}
        flags = oracles.FinitePair(t3.table, t3.identity, bij).flags()
        self.assertTrue(flags["normal"])
        self.assertFalse(flags["Dl"])
        self.assertFalse(flags["Dr"])

    def test_t2_constants_and_identity_is_no_clot(self):
        # {12, 11}: the identity and one constant map; conjugating the pair
        # (12, 11) by the swap (21, 21) gives (12, 22)
        t2 = oracles.full_transformations(2)
        one, c1, c2 = (t2.label_index[s] for s in ("12", "11", "22"))
        pair = oracles.FinitePair(t2.table, t2.identity, {one, c1})
        self.assertEqual(pair.clot_zero, frozenset({one, c1, c2}))
        self.assertFalse(pair.flags()["C0.5"])
        self.assertTrue(pair.refutes("C0.5", {"u": c2}))
        self.assertFalse(pair.refutes("C0.5", {"u": c1}))

    def test_whole_monoid_and_trivial_submonoid(self):
        t2 = oracles.full_transformations(2)
        whole = oracles.FinitePair(t2.table, t2.identity, range(4)).flags()
        self.assertTrue(whole["normal"] and whole["C0.5"] and whole["C0"])
        # the constant 11 gives T2*11 = {11, 22} but 11*T2 = {11}
        self.assertTrue(whole["Dr"])
        self.assertFalse(whole["Dl"])
        trivial = oracles.FinitePair(t2.table, t2.identity, {t2.identity})
        self.assertTrue(trivial.flags()["normal"])

    def test_t3_has_699_submonoids(self):
        t3 = oracles.full_transformations(3)
        self.assertEqual(len(oracles.all_submonoids(t3.table, t3.identity)),
                         699)

    def test_generated_maps(self):
        # a transposition and a 3-cycle generate S3; a constant adds 3 more
        self.assertEqual(len(oracles.generated_maps(3, [(2, 1, 3),
                                                        (2, 3, 1)])), 6)
        self.assertEqual(len(oracles.generated_maps(
            3, [(2, 1, 3), (2, 3, 1), (1, 1, 1)])), 9)


class BicyclicOracles(unittest.TestCase):
    parity = Residues(2, 2, {(0, 0)})

    def test_defining_relation(self):
        self.assertEqual(bmul(X, Y), ONE)
        self.assertEqual(bmul(Y, X), (1, 1))
        grid = [(n, m) for n in range(4) for m in range(4)]
        for a in grid:
            for b in grid:
                for c in grid:
                    self.assertEqual(bmul(bmul(a, b), c), bmul(a, bmul(b, c)))

    def test_example_1_relations(self):
        limit = workloads.EXPONENT_LIMIT
        self.assertIsNone(oracles.rm_refutation((2, 1), (1, 2), self.parity,
                                                limit))
        self.assertIsNone(oracles.rm_refutation(X, Y, self.parity, limit))
        self.assertEqual(oracles.rm_refutation((1, 1), (2, 2), self.parity,
                                               limit), (X, Y))

    def test_example_1_compatibility_failure(self):
        witness = {"pair1": ["y2x1", "y1x2"], "pair2": ["y0x1", "y1x0"],
                   "order": "second*first", "product": ["y1x1", "y2x2"]}
        self.assertTrue(workloads.c1_refuted(witness, self.parity))
        witness["order"] = "first*second"
        self.assertFalse(workloads.c1_refuted(witness, self.parity))

    def test_parity_fails_unit_insertion(self):
        # x * y2x2 * y = y1x1 has odd exponents
        self.assertFalse(oracles.unit_insertion_holds(self.parity, 4))
        self.assertEqual(bmul(bmul(X, (2, 2)), Y), (1, 1))
        diagonal = Residues(2, 2, {(0, 0), (1, 1)})
        self.assertTrue(oracles.unit_insertion_holds(diagonal, 8))

    def test_fifteen_residue_submonoids_up_to_modulus_4(self):
        subs = oracles.residue_submonoids(4)
        self.assertEqual(len(subs), 15)
        self.assertIn(self.parity.grid(), {s.grid() for s in subs})
        # an odd-exponent class alone is not closed under the product
        self.assertNotIn(Residues(2, 2, {(0, 0), (1, 0)}).grid(),
                         {s.grid() for s in subs})

    def test_parse_description(self):
        sub = Residues.parse("mod(4,4) residues {(0,0),(2,2)}")
        self.assertEqual((sub.p, sub.q), (4, 4))
        self.assertIn((6, 2), sub)
        self.assertNotIn((1, 1), sub)


if __name__ == "__main__":
    unittest.main()
