"""Watch the count triple when a triangle is glued onto an edge.

Appending a new vertex adjacent to both ends of an existing edge
multiplies the number of draconian sequences by 3 whenever the edge
ends have the right degrees.  The three lift maps make this concrete:
each sequence of the base graph produces one sequence ending in 1, one
bump image ending in 0, and one resolved image, and together the three
images partition the sequences of the extended graph.

The script builds K_4, then glues triangles onto the edges {1,2} and
{3,4} of a perfect matching, verifying the partition at each step and
the resulting counts 20, 60, 180.  The graph after m triangles is
matching_triangles(4, m), the builder behind the CLI's
matching-triangles:4,m family.
"""

from pqvol import (
    complete_graph,
    count_draconian,
    matching_triangles,
    nvol_matching_triangles,
    verify_partition,
)


def main():
    base = complete_graph(4)
    print(f"K_4 count: {count_draconian(base).count}")
    print()

    g = base
    for m in (1, 2):
        edge = (2 * m - 1, 2 * m)
        step = verify_partition(g, edge, matching_mode=True)
        g = matching_triangles(4, m)
        count = count_draconian(g).count
        formula = nvol_matching_triangles(4, m)
        print(f"glue triangle onto edge {edge}:")
        print(f"  partition of the extended sequence set holds: {step.partition_holds}")
        print(f"  count tripled: {step.triples}")
        print(f"  count after {m} triangle(s): {count} (closed form {formula})")
        assert step.partition_holds and step.triples and count == formula
        print()

    print("each lift image, by construction:")
    print("  lift_one     appends a final entry 1")
    print("  lift_bump    raises one end of the edge, appends 0")
    print("  lift_resolve repairs bump collisions, appending 0 or 2")


if __name__ == "__main__":
    main()
