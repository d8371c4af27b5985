"""The two-circle scan that the least-gap starts replaced, kept as the tests'
oracle for ``diagrams._least_circle_pair``: both stages keep the rotations
whose first two relabelled labels (the head) are least.

``algebra._moves`` deduplicates slides by the number the returned numbering
gives a chord, so the new scan must return this one's numbering as well as
its key.
"""


def head_scan_rotation(circles):
    """The least relabelled rotation over ``circles`` (``(word, numbering)``
    pairs) and ``(circle index, completed numbering)`` of every rotation
    attaining it, scanning only the rotations with the least head and the
    one rotation of each word shorter than two labels."""
    least0 = least1 = None
    starts, short = [], []
    for ci, (word, base) in enumerate(circles):
        if len(word) < 2:
            short.append((ci, 0))
            continue
        get, fresh = base.get, len(base) + 1
        for r, (a, c) in enumerate(zip(word, word[1:] + word[:1])):
            v0 = get(a, fresh)
            v1 = v0 if c == a else get(c, fresh + (v0 == fresh))
            if least0 is None or v0 < least0 or (v0 == least0 and v1 < least1):
                least0, least1, starts = v0, v1, [(ci, r)]
            elif v0 == least0 and v1 == least1:
                starts.append((ci, r))
    best = None
    for ci, r in short + starts:
        word, base = circles[ci]
        rot = word[r:] + word[:r]
        numbering = {**base}
        if best is not None:
            for lab, b in zip(rot, best):
                v = numbering.get(lab)
                if v is None:
                    v = numbering[lab] = len(numbering) + 1
                if v != b:
                    less = v < b
                    break
            else:
                less = len(rot) < len(best)
                if len(rot) == len(best):
                    ties.append((ci, numbering))
            if not less:
                continue
        for lab in rot:
            if lab not in numbering:
                numbering[lab] = len(numbering) + 1
        best = tuple([numbering[lab] for lab in rot])
        ties = [(ci, numbering)]
    return best, ties


def head_scan_pair(w1, w2):
    """The least relabelled pair of two circle words and the numbering of
    the first scanned rotation pair attaining it."""
    words = (w1, w2)
    best1, ties = head_scan_rotation(((w1, {}), (w2, {})))
    best2, ties = head_scan_rotation(tuple([(words[1 - ci], numbering) for ci, numbering in ties]))
    return (best1, best2), ties[0][1]
