"""Byte-identity of CLI output across changes.

Each digest is the sha256 of stdout for one command, recorded together
with its exit code before the refactor it guards: the first six before
graphs carried adjacency bitmasks, the next four before the subset
kernel, the engine check and the verify rows were each written once,
the next two before the subset state kept one entry per neighborhood
union, the next one before the graph stream marked every relabeling
of a class seen, the next two before dilates were counted by Gale's
condition instead of one flow per pair of margins, and the last two
before the dilate counter lost its process pool.  The plain count
digests, with the tmp_path graph file, were recorded before listing took
a graph instead of its bipartite double.  The two search
digests also guard the stream's growth of each n from the least masks
on n - 1 vertices, which replaced that seen bitmap.  A refactor
that changes any byte of these outputs, or an exit code, fails here.
"""

import hashlib

import pytest

from pqvol.cli import main

GOLDEN = [
    (["search", "--n-max", "5"], 0,
     "012a33314dec4fba36e9d2a61b985833ea4129bfe86e69bd174041fe80233726"),
    (["verify", "--family", "cycle-deleted", "--n", "5..7"], 0,
     "6a5a7d359c561a84d2bdd316f848f7404012afbcfbd02e4086e850a0a2624dca"),
    (["verify", "--family", "path-deleted", "--n", "4..7"], 0,
     "50222387a18fbc23cf4a8270fbbad29b5d9c3c5509a3b029de7b2c38894e54e5"),
    (["verify", "--family", "matching-triangles", "--n", "4..5"], 0,
     "5ba7f8db896135aec1fad2e023c29c63e06d7943a3c3a0e78ab571217eb6d902"),
    (["count", "--family", "cycle-deleted:8,4", "--list"], 0,
     "f1c421fe4d1f90925a383fdb58770d132c4ada5dfeb0cd881226d841b5322c6a"),
    (["ehrhart", "--family", "complete:3"], 0,
     "80a1d54de4116c7e296cc1de96999bba62e13a03e6da8b91f3309b6bdd1155bb"),
    (["count", "--family", "cycle-deleted:6,4", "--list", "--engine", "flow"], 0,
     "3cf19c7745c306e07fe41168f5b3995e0a8d82f153f55018274989b9d10a8f8a"),
    (["verify", "--family", "cycle-deleted", "--n", "5..7", "--table"], 0,
     "56bbab114f0cf5b4a6c7ad496739b0d8f59fa1eb841a4a4698227700344f2230"),
    (["verify", "--family", "path-deleted", "--n", "4..7", "--table"], 0,
     "78aca0081492c2b549c3b2e1f6ffb39d4783041452ae29cb4b24a53e2ff319b5"),
    (["verify", "--family", "matching-triangles", "--n", "4..5", "--table"], 0,
     "abf10eee6c81d183499e5944a463b9163f631181db68aa48d9b3f06cd535c819"),
    (["count", "--family", "matching-triangles:6,2", "--list"], 0,
     "0efa59b2c7eace7dc3586b053d4c5c6b3f84889f3ae7b5f3842ac0cd09cc3c5a"),
    # the partition sets' sizes, containments and injectivity
    (["recurrence", "--family", "cycle-deleted:6,4", "--edge", "1,2"], 0,
     "76cb50f496424ca77c076a5bf9f71cb034322ecf7d78b6c80ecd1cafc6241713"),
    # the representative and the order of all 112 six-vertex classes
    (["search", "--n-max", "6"], 0,
     "eaddf2132dd293eeaee54d38e8ea01ee00bcf968a18e7e8c5d62deb811bbfb26"),
    # every dilate count up to t = 6 of K_4 and of a triangle with a pendant edge
    (["ehrhart", "--family", "complete:4"], 0,
     "ad561beecb2972f8c6ef5f614de27ed82fa2fc27b940d7a06caf624363bb592f"),
    (["ehrhart", "--family", "path-deleted:4,2"], 0,
     "1b648375e4116127293a04f87ecc251f1e5e857c76747ecdb57e554d9c1f7396"),
    # every dilate count of two 5-vertex graphs, K_5 in the table rendering
    (["ehrhart", "--family", "cycle-deleted:5,4"], 0,
     "f006a437225c462060d484ac6e4f5390e70d25c964dd5a018be2cfaa3e1e7b24"),
    (["ehrhart", "--family", "complete:5", "--table"], 0,
     "b7050fcab23797fb77e6bbaed6831f6d86b3f4ab4b7f9b450216913070bebd65"),
    # plain counts: the report's fields, in JSON and in the table rendering
    (["count", "--family", "complete:4"], 0,
     "f106dfea2366cd99ddd4cd0e6a33190c12c3bd493c06a5a914f8b9491f9d3774"),
    (["count", "--family", "complete:4", "--table"], 0,
     "5398379019a5627789267e3dc9f00aa615359abe3065048e12da39148ebe54be"),
    (["count", "--family", "path-deleted:4,2", "--engine", "flow"], 0,
     "6859b9b99382fa77f5171d22cd2042aeae403c73a12d7363b3afc7f9321c3ac5"),
]

# a graph file "5\n2 3\n": one edge and three isolated vertices, so both notes
GOLDEN_FILE = [
    (["count"], "19603b9dc9eee8f06d0b3b49f2c3a725f6d2c37138b3b49b11364c3107fb0174"),
    (["count", "--table"], "27f9f4aeef54e4134d8111788930f502d8e4dbc40a52210a903149c1bed92672"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_output_is_byte_identical(capsys, argv, code, digest):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", GOLDEN_FILE,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_FILE])
def test_count_of_a_graph_file_is_byte_identical(capsys, tmp_path, argv, digest):
    path = tmp_path / "graph.txt"
    path.write_text("5\n2 3\n")
    assert main(argv + ["--graph", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
