"""Lattice files for the h1 subcommand, shared by the tests and CI.

This module imports nothing outside the standard library, so a plain
interpreter can write the files without pytest.
"""


def augmentation_dual_file(n: int) -> str:
    """J_{C_n} = Z[C_n] / Z.N_G in the lattice-file format: H^1 = Z/n.

    The basis is the images of the elements 0..n-2, and the image of
    n - 1 is minus their sum.  At n = 48 the file is about 220 KB.
    """
    d = n - 1
    lines = [str(n)]
    lines += [" ".join(str((g + h) % n) for h in range(n)) for g in range(n)]
    lines.append(str(d))
    for g in range(n):
        for i in range(d):
            lines.append(
                " ".join(
                    "-1" if (g + j) % n == d else "1" if (g + j) % n == i else "0"
                    for j in range(d)
                )
            )
    return "\n".join(lines) + "\n"


# Lattice files for the h1 subcommand, passed by relative name so that
# stdout (which echoes the path) does not depend on the directory.
LATTICE_FILES = {
    # C2 acting on Z by -1: H^1 = Z/2.
    "sign.txt": "2\n0 1\n1 0\n1\n1\n-1\n",
    # Norm-one lattice of C4, Z[C4] modulo the norm element: H^1 = Z/4.
    "norm1-c4.txt": (
        "4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n3\n"
        "1 0 0\n0 1 0\n0 0 1\n"
        "0 0 -1\n1 0 -1\n0 1 -1\n"
        "0 -1 1\n0 -1 0\n1 -1 0\n"
        "-1 1 0\n-1 0 1\n-1 0 0\n"
    ),
    # The augmentation dual of the order-48 cyclic group: H^1 = Z/48.
    "j-c48.txt": augmentation_dual_file(48),
}
