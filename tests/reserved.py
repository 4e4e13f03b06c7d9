"""Reading the reserved auxiliary sets of a restructured frame in tests."""


def elements_in_layer(aux, layer):
    """All reserved indices of one layer: every J set's, then every K set's,
    then every L set's, which is not ``sample_aux``'s order (one inner
    vertex's J, K and L sets, then the next vertex's)."""
    out = []
    for sets in aux.J.values():
        for s in sets:
            out.extend(s.members.get(layer, []))
    for sets in aux.K.values():
        for s in sets:
            out.extend(s.members.get(layer, []))
    for (x, target, t, i), idxs in aux.L.items():
        if target is layer:
            out.extend(idxs)
    return out
