"""RPR003 fixture: writes through sealed coverage columns (must fire)."""

import numpy as np


def clobber_view(view):
    ids = view.ids  # sealed column
    ids[0] = -1  # line 8: subscript write
    return ids


def sort_in_place(view):
    tail = view.ids[1:]  # basic slice aliases the sealed buffer
    tail.sort()  # line 14: in-place mutator
    return tail


def unseal(table):
    order = table.order_by_pre
    order.setflags(write=True)  # line 20: un-sealing
    order += 1  # line 21: augmented assignment
    return order


def reseal_then_write(values):
    frozen = np.asarray(values)
    frozen.setflags(write=False)
    frozen[3] = 9  # line 28: wrote what this function just froze
    return frozen


def shift_token_column(corpus):
    offsets = corpus.token_column.offsets  # sealed TokenColumn column
    offsets[1:] -= 1  # line 34: augmented assignment through a slice
    corpus.token_column.ids[0] = 0  # line 35: subscript write
    return offsets
