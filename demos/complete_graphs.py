"""Count draconian sequences on complete graphs.

For the complete graph on n vertices every vertex of the doubled graph
sees every right vertex, so the defining inequalities are vacuous and
the draconian sequences are exactly the weak compositions of n - 1
into n parts.  Their number is the central binomial coefficient
C(2(n-1), n-1), which is also the normalized volume of the polytope.

The script enumerates the sequences directly and checks the closed
form, then prints the first few members for n = 3 so the lex order of
the enumeration is visible.
"""

from pqvol import complete_graph, count_draconian, enumerate_draconian, nvol_complete


def main():
    print("n   enumerated   closed form")
    for n in range(1, 9):
        report = count_draconian(complete_graph(n))
        formula = nvol_complete(n)
        mark = "ok" if report.count == formula else "MISMATCH"
        print(f"{n:<3} {report.count:>10}   {formula:>10}   {mark}")
        assert report.count == formula

    print()
    print("all draconian sequences for the triangle (weak compositions of 2):")
    for c in enumerate_draconian(complete_graph(3)):
        print("  ", c)


if __name__ == "__main__":
    main()
