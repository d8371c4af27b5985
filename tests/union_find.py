"""The union-find that counted surgery components before the endpoint walk,
kept as the tests' oracle of ``surgery._walk_count``.

It counts the classes of a node pairing directly, so the walk is checked
against a count that shares none of its steps.
"""


def components(node_count, gluings):
    """The number of classes of nodes ``0 .. node_count - 1`` under the
    pairs ``gluings``; an unglued node is a class of its own."""
    parent = list(range(node_count))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in gluings:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return sum(1 for i in range(node_count) if find(i) == i)


def graph_components(graph):
    """Components of a ``SmoothingGraph``: the classes of its glued nodes
    plus its free loops."""
    return components(graph.node_count, graph.gluings) + graph.free_loops
