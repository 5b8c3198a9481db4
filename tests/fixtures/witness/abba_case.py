"""A seeded lock-order cycle: one thread takes A then B, a second one
takes B then A.  Never collected by tier-1 (not a ``test_*`` file):
``tests/test_lock_witness.py`` runs it under ``--lock-witness`` and
checks that the witness fails ``repro analyze``."""

import threading


class Abba:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def a_then_b(self):
        with self._a:
            with self._b:
                pass

    def b_then_a(self):
        with self._b:
            with self._a:
                pass


def test_takes_both_orders():
    pair = Abba()
    for order in (pair.a_then_b, pair.b_then_a):
        thread = threading.Thread(target=order)
        thread.start()
        thread.join()
