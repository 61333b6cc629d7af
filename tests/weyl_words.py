"""Weyl-group words for the tests, acting by label steps.

A word (i1, ..., im) stands for s_{i1} s_{i2} ... s_{im}; it acts on a
vector rightmost first, each s_i taking labels l to l - l_i cartan[i].
"""


def apply_word(datum, word, v):
    """The vector s_{i1} ... s_{im} v."""
    l = datum.labels(v)
    for i in reversed(word):
        l = tuple(a - l[i] * b for a, b in zip(l, datum.cartan[i]))
    return datum.from_labels(l)


def inverse_word(word):
    return tuple(reversed(word))
