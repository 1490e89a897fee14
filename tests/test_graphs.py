import copy
import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest

from conftest import cycle_graph, gnp, path_graph, unlockable
from vsep.graphs import (
    AsymmetryError,
    Graph,
    ParseError,
    load_matrix_market,
    load_metis,
    save_metis,
    validate,
)


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return f


# ---------------------------------------------------------------- MatrixMarket


def test_mm_p3_symmetrized(tmp_path):
    f = write(
        tmp_path,
        "p3.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n"
        "1 1 5.0\n"
        "2 1 1.0\n"
        "3 2 -2.0\n",
    )
    g = load_matrix_market(f)
    assert g == path_graph(3)
    assert validate(g) == []


def test_mm_declared_dimension_defines_n(tmp_path):
    f = write(
        tmp_path,
        "big.mtx",
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "% a tiny stand-in declaring the bcspwr09 dimension\n"
        "1723 1723 2\n"
        "2 1\n"
        "1723 1\n",
    )
    g = load_matrix_market(f)
    assert g.n == 1723
    assert g.m == 2


def test_mm_out_of_bounds_entry(tmp_path):
    f = write(
        tmp_path,
        "bad.mtx",
        "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n5 1\n",
    )
    with pytest.raises(IndexError):
        load_matrix_market(f)


@pytest.mark.parametrize(
    "body, exc",
    [
        ("1\n0 1\n", IndexError),
        ("1\n1 0\n", IndexError),
        ("1\n99999999999999999999 1\n", IndexError),
        ("2\n5 1\nx y\n", IndexError),
        ("2\nx y\n5 1\n", ParseError),
        ("2\n1 2 3\n0 1\n", ParseError),
        ("1\n0 1\n1 2\n", IndexError),
        ("1\n1 2\n0 1\n", ParseError),
    ],
)
def test_mm_first_faulty_entry_decides(tmp_path, body, exc):
    f = write(tmp_path, "bad.mtx", "%%MatrixMarket matrix coordinate pattern general\n3 3 " + body)
    with pytest.raises(exc):
        load_matrix_market(f)


def test_mm_duplicates_collapse_and_values_ignored(tmp_path):
    f = write(
        tmp_path,
        "dup.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 2 1.5\n"
        "2 1 99.0\n"
        "1 2 0.25\n",
    )
    g = load_matrix_market(f)
    assert g.m == 1
    assert list(g.weights) == [1, 1]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "%%MatrixMarket matrix array real general\n2 2\n1.0\n1.0\n1.0\n1.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 3 0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n",
        "%%MatrixMarket matrix coordinate pattern general\n2 2 1\none two\n",
        "not a banner\n2 2 0\n",
        "%%MatrixMarket vector coordinate real general\n2 2 0\n",  # object
        "%%MatrixMarket matrix coordinate quaternion general\n2 2 0\n",  # field
        "%%MatrixMarket matrix coordinate real diagonal\n2 2 0\n",  # symmetry
        "%%MatrixMarket matrix coordinate real general\n% comment only\n\n",  # no size line
        "%%MatrixMarket matrix coordinate real general\n2 2\n",  # 2-token size line
        "%%MatrixMarket matrix coordinate real general\n2 2 x\n",  # non-integer size
        "%%MatrixMarket matrix coordinate real general\n-1 -1 0\n",  # negative dimensions
        "%%MatrixMarket matrix coordinate real general\n2 2 -1\n",  # negative entry count
    ],
)
def test_mm_malformed(tmp_path, text):
    f = write(tmp_path, "bad.mtx", text)
    with pytest.raises(ParseError):
        load_matrix_market(f)


def test_mm_malformed_value(tmp_path):
    f = write(tmp_path, "bad.mtx", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 abc\n")
    with pytest.raises(ParseError, match="malformed entry: '1 2 abc'"):
        load_matrix_market(f)


def test_mm_output_always_validates(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(1, 12))
        nnz = int(rng.integers(0, 20))
        entries = [
            f"{rng.integers(1, n + 1)} {rng.integers(1, n + 1)}" for _ in range(nnz)
        ]
        f = write(
            tmp_path,
            f"r{trial}.mtx",
            "%%MatrixMarket matrix coordinate pattern general\n"
            f"{n} {n} {nnz}\n" + "\n".join(entries) + ("\n" if entries else ""),
        )
        assert validate(load_matrix_market(f)) == []


# ---------------------------------------------------------------------- METIS


def test_metis_p3(tmp_path):
    f = write(tmp_path, "p3.graph", "3 2\n2\n1 3\n2\n")
    assert load_metis(f) == path_graph(3)


def test_metis_c4(tmp_path):
    f = write(tmp_path, "c4.graph", "4 4\n2 4\n1 3\n2 4\n3 1\n")
    g = load_metis(f)
    assert g.m == 4
    assert g == cycle_graph(4)


def test_metis_missing_reverse_edge(tmp_path):
    f = write(tmp_path, "bad.graph", "2 1\n2\n\n")
    with pytest.raises(AsymmetryError):
        load_metis(f)


def test_metis_weight_mismatch(tmp_path):
    f = write(tmp_path, "bad.graph", "2 1 1\n2 5\n1 7\n")
    with pytest.raises(AsymmetryError):
        load_metis(f)


def test_metis_vertex_weights(tmp_path):
    f = write(tmp_path, "w.graph", "3 2 10 1\n4 2\n0 1 3\n7 2\n")
    g = load_metis(f)
    assert list(g.vertex_cost) == [4, 0, 7]
    assert list(g.vertex_size) == [1, 1, 1]


def test_metis_full_fmt(tmp_path):
    f = write(tmp_path, "swe.graph", "2 1 111 1\n2 4 2 9\n1 5 1 9\n")
    g = load_metis(f)
    assert list(g.vertex_size) == [2, 1]
    assert list(g.vertex_cost) == [4, 5]
    assert list(g.weights) == [9, 9]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3 2\n2\n1 3\n",  # missing vertex line
        "3 1\n2\n1 3\n2\n",  # wrong edge count
        "2 1\n2 3\n1\n",  # dangling token without edge weights is a neighbor OOR
        "2 1 2\n2\n1\n",  # bad fmt
        "2 1 10 2\n1 2\n1 1\n",  # ncon != 1
        "2 1 0 1\n2\n1\n",  # ncon without weight flag
        "1 0\n1\n",  # self-loop
        "2 2\n2 2\n1 1\n",  # duplicate neighbor
        "2 1\n0\n1\n",  # neighbor 0
        "2 1 1\n2 0\n1 0\n",  # edge weight 0
        "-1 0\n",  # negative vertex count
        "2 1\n2 x\n1\n",  # non-integer token
        "2 1\n99999999999999999999\n1\n",  # token beyond int64
        "2 x\n2\n1\n",  # non-integer header
        "2 1 10 x\n1 2\n1 1\n",  # non-integer ncon
        "2 1\n2\n1\n1\n",  # a non-empty line past vertex n
    ],
)
def test_metis_malformed(tmp_path, text):
    f = write(tmp_path, "bad.graph", text)
    with pytest.raises(ParseError):
        load_metis(f)


@pytest.mark.parametrize(
    "load, text, error",
    [
        (load_metis, "10 0\n", "bad header: '10 0'"),
        (load_matrix_market, "%%MatrixMarket matrix coordinate pattern symmetric\n10 10 0\n", "bad size line: '10 10 0'"),
    ],
    ids=["metis", "mtx"],
)
def test_loaders_reject_vertices_that_cannot_be_allocated(tmp_path, monkeypatch, load, text, error):
    """The loaders allocate the graph's vertex arrays before any other O(n)
    array; when that fails the header line is named."""
    f = write(tmp_path, "g.txt", text)

    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "empty", no_memory)
    with pytest.raises(ParseError, match="^" + error):
        load(f)


def test_metis_most_negative_neighbor_is_out_of_range(tmp_path):
    # neighbor - 1 wraps around in int64; the message must name the token as written
    f = write(tmp_path, "wrap.graph", "2 0\n-9223372036854775808\n\n")
    with pytest.raises(ParseError, match=r"^vertex line 1: neighbor -9223372036854775808 out of range$"):
        load_metis(f)


def _load_metis_lines(text):
    """Line-by-line reference for load_metis: (n, {(u, v): w}, cost, size), 0-based."""
    rows = [ln for ln in text.splitlines() if not ln.startswith("%")]
    header = rows[0].split()
    n = int(header[0])
    fmt = header[2] if len(header) > 2 else "0"
    has_size, has_weight, has_eweight = (ch == "1" for ch in fmt.zfill(3))
    vertex_lines = rows[1:] + [""] * (n - (len(rows) - 1))
    if any(ln.strip() for ln in vertex_lines[n:]):
        raise ParseError(f"expected {n} vertex lines, found {len(rows) - 1}")
    cost, size = [1] * n, [1] * n
    adj = [dict() for _ in range(n)]
    for u in range(n):
        try:
            tokens = [int(t) for t in vertex_lines[u].split()]
        except ValueError:
            raise ParseError(f"non-integer token on vertex line {u + 1}") from None
        k = 0
        if has_size:
            if k >= len(tokens):
                raise ParseError(f"vertex line {u + 1} missing size")
            size[u] = tokens[k]
            if size[u] < 1:
                raise ParseError(f"vertex {u + 1} has size {size[u]} < 1")
            k += 1
        if has_weight:
            if k >= len(tokens):
                raise ParseError(f"vertex line {u + 1} missing weight")
            cost[u] = tokens[k]
            if cost[u] < 0:
                raise ParseError(f"vertex {u + 1} has weight {cost[u]} < 0")
            k += 1
        rest = tokens[k:]
        step = 2 if has_eweight else 1
        if len(rest) % step:
            raise ParseError(f"vertex line {u + 1}: dangling edge weight")
        for t in range(0, len(rest), step):
            v = rest[t]
            w = rest[t + 1] if has_eweight else 1
            if not (1 <= v <= n):
                raise ParseError(f"vertex line {u + 1}: neighbor {v} out of range")
            if v - 1 == u:
                raise ParseError(f"vertex line {u + 1}: self-loop")
            if v - 1 in adj[u]:
                raise ParseError(f"vertex line {u + 1}: duplicate neighbor {v}")
            if w < 1:
                raise ParseError(f"vertex line {u + 1}: edge weight {w} < 1")
            adj[u][v - 1] = w
    for u in range(n):
        for v, w in adj[u].items():
            if adj[v].get(u) != w:
                raise AsymmetryError(f"edge ({u + 1}, {v + 1}) not mirrored on vertex {v + 1}")
    edges = {(u, v): w for u in range(n) for v, w in adj[u].items() if u < v}
    if len(edges) != int(header[1]):
        raise ParseError(f"header declares {header[1]} edges, found {len(edges)}")
    return n, edges, cost, size


def _metis_outcome(load, text):
    try:
        res = load(text)
    except ParseError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(res, Graph):
        res = (res.n, {(u, v): w for u, v, w in res.edges()}, res.vertex_cost.tolist(), res.vertex_size.tolist())
    return res


def test_metis_blank_lines_past_last_vertex_load(tmp_path):
    g = load_metis(write(tmp_path, "p2.graph", "2 1\n2\n1\n\n  \n"))
    assert g.n == 2 and g.m == 1


def test_metis_first_faulty_line_decides(tmp_path):
    # a self-loop on line 1 comes before a non-integer token on line 2
    text = "2 1\n1\n1 x\n"
    expected = ("ParseError", "vertex line 1: self-loop")
    assert _metis_outcome(_load_metis_lines, text) == expected
    assert _metis_outcome(lambda t: load_metis(write(tmp_path, "two.graph", t)), text) == expected


def _relayout(text, rng, start=0):
    """``text`` past character ``start`` with the same tokens laid out anew:
    CRLF line ends; tabs between tokens and blanks after them; a form feed,
    vertical tab or lone carriage return, which ``str.splitlines`` takes for
    a line break, or a unit separator or no-break space, which ``str.split``
    takes for a blank; or a ``%`` comment line of UTF-8 text."""
    head, body = text[:start], text[start:]
    kind = int(rng.integers(4))
    if kind == 0:
        body = body.replace("\n", "\r\n")
    elif kind == 1:
        body = body.replace(" ", "\t").replace("\n", " \t \n")
    elif kind == 2:
        pos = int(rng.integers(len(body) + 1))
        body = body[:pos] + ["\f", "\v", "\r", "\x1f", "\xa0"][int(rng.integers(5))] + body[pos:]
    else:
        starts = [0] + [i + 1 for i, ch in enumerate(body) if ch == "\n"]
        pos = starts[int(rng.integers(len(starts)))]
        body = body[:pos] + "% größe — naïve ✓\n" + body[pos:]
    return head + body


def test_metis_errors_match_line_reader(tmp_path):
    rng = np.random.default_rng(17)
    layout = np.random.default_rng(71)
    fmts = ["0", "1", "10", "11", "100", "101", "110", "111"]
    f = tmp_path / "fuzz.graph"

    def load(text):
        f.write_bytes(text.encode("utf-8"))
        return load_metis(f)

    for trial in range(300):
        n = int(rng.integers(1, 8))
        fmt = fmts[trial % len(fmts)]
        has_size, has_weight, has_eweight = (ch == "1" for ch in fmt.zfill(3))
        base = gnp(n, 0.4, seed=500 + trial)
        ew = {(u, v): int(rng.integers(1, 4)) for u, v, _ in base.edges()}
        ew.update({(v, u): w for (u, v), w in list(ew.items())})
        lines = []
        for u in range(n):
            toks = [int(rng.integers(1, 3))] if has_size else []
            toks += [int(rng.integers(0, 4))] if has_weight else []
            for v in sorted(v for (a, v) in ew if a == u):
                toks += [v + 1, ew[(u, v)]] if has_eweight else [v + 1]
            lines.append([str(t) for t in toks])
        for _ in range(int(rng.integers(0, 4))):
            toks = lines[int(rng.integers(n))]
            kind = int(rng.integers(6))
            pos = int(rng.integers(len(toks) + 1))
            if kind == 0:
                toks.insert(pos, "x")
            elif kind == 1 and toks:
                toks[min(pos, len(toks) - 1)] = str(int(rng.integers(-1, n + 2)))
            elif kind == 2 and toks:
                del toks[min(pos, len(toks) - 1)]
            elif kind == 3:
                toks.insert(pos, str(int(rng.integers(1, n + 1))))
            elif kind == 4:
                toks.clear()
            else:
                toks.append(toks[-1] if toks else "1")
        m = len(ew) // 2
        header = f"{n} {m} {fmt}\n"
        text = header + "".join(" ".join(t) + "\n" for t in lines)
        for variant in (text, _relayout(text, layout, len(header))):
            assert _metis_outcome(load, variant) == _metis_outcome(_load_metis_lines, variant), repr(variant)


def _load_mm_lines(text):
    """Line-by-line reference for load_matrix_market: (n, {(u, v)}), 0-based, u < v."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file")
    banner = lines[0].split()
    if len(banner) != 5 or banner[0].lower() != "%%matrixmarket":
        raise ParseError(f"bad MatrixMarket banner: {lines[0]!r}")
    obj, fmt, field, symmetry = (t.lower() for t in banner[1:])
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r}")
    if fmt != "coordinate":
        raise ParseError(f"unsupported format {fmt!r} (only coordinate)")
    arity = {"pattern": 2, "real": 3, "integer": 3, "complex": 4}.get(field)
    if arity is None:
        raise ParseError(f"unknown field {field!r}")
    if symmetry not in ("general", "symmetric", "skew-symmetric", "hermitian"):
        raise ParseError(f"unknown symmetry {symmetry!r}")
    pos = 1
    while pos < len(lines) and (lines[pos].startswith("%") or not lines[pos].strip()):
        pos += 1
    if pos >= len(lines):
        raise ParseError("missing size line")
    size = lines[pos].split()
    if len(size) != 3:
        raise ParseError(f"bad size line: {lines[pos]!r}")
    try:
        rows, cols, nnz = (int(t) for t in size)
    except ValueError:
        raise ParseError(f"bad size line: {lines[pos]!r}") from None
    if rows != cols:
        raise ParseError(f"matrix is {rows}x{cols}; a graph needs a square matrix")
    if rows < 0 or nnz < 0:
        raise ParseError("negative dimensions")
    n, count, edges = rows, 0, set()
    for line in lines[pos + 1 :]:
        tokens = line.split()
        if not tokens:
            continue
        if count == nnz:
            raise ParseError("more entries than declared")
        if len(tokens) != arity:
            raise ParseError(f"entry has {len(tokens)} tokens, expected {arity}: {line!r}")
        try:
            i, j = int(tokens[0]), int(tokens[1])
            for x in tokens[2:]:
                float(x)
        except ValueError:
            raise ParseError(f"malformed entry: {line!r}") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"entry ({i}, {j}) out of bounds for declared size {n}")
        count += 1
        if i != j:
            edges.add((min(i, j) - 1, max(i, j) - 1))
    if count < nnz:
        raise ParseError(f"declared {nnz} entries, found {count}")
    return n, edges


def _mm_outcome(load, text):
    try:
        res = load(text)
    except (ParseError, IndexError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(res, Graph):
        assert validate(res) == [] and set(res.weights.tolist() + res.vertex_cost.tolist()) <= {1}
        res = (res.n, {(u, v) for u, v, _ in res.edges()})
    return res


# tokens that int() or float() read beyond plain digits, and some they do not
_MM_TOKENS = ["+3", "007", "1_0", "99999999999999999999", "-1", "0", "x", "nan", "1e3", "-.5", "1.", "inf", "1e", "٣"]


def test_mm_errors_match_line_reader(tmp_path):
    rng = np.random.default_rng(29)
    layout = np.random.default_rng(92)
    fields = {"pattern": 2, "real": 3, "integer": 3, "complex": 4}
    f = tmp_path / "fuzz.mtx"

    def load(text):
        f.write_bytes(text.encode("utf-8"))
        return load_matrix_market(f)

    messages = []
    for trial in range(500):
        n = int(rng.integers(1, 7)) if trial % 10 else 0
        field = list(fields)[trial % 4]
        nnz = int(rng.integers(0, 8))
        entries = [
            [str(int(rng.integers(1, n + 1))) for _ in range(2)] if n else ["1", "1"] for _ in range(nnz)
        ]
        for toks in entries:
            toks += [["1", "2.5", "-0.25", "3E+2"][int(rng.integers(4))] for _ in range(fields[field] - 2)]
        for _ in range(int(rng.integers(0, 4))):
            kind = int(rng.integers(7))
            at = int(rng.integers(len(entries) + 1))
            toks = entries[min(at, len(entries) - 1)] if entries else []
            pos = int(rng.integers(len(toks) + 1))
            if kind == 0 and toks:
                toks[min(pos, len(toks) - 1)] = _MM_TOKENS[int(rng.integers(len(_MM_TOKENS)))]
            elif kind == 1 and toks:
                toks[min(pos, 1, len(toks) - 1)] = str(int(rng.integers(-1, n + 2)))
            elif kind == 2:
                toks.insert(pos, "1")
            elif kind == 3 and toks:
                del toks[min(pos, len(toks) - 1)]
            elif kind == 4:
                entries.insert(at, [])
            elif kind == 5:
                entries.append(["1", "1", "1.0", "0"][: fields[field]])
            elif entries:
                del entries[min(at, len(entries) - 1)]
        banner = ["%%MatrixMarket", "matrix", "coordinate", field, ["general", "symmetric"][trial % 2]]
        size = [str(n), str(n), str(nnz)]
        if rng.random() < 0.1:
            banner[int(rng.integers(5))] = "array"
        if rng.random() < 0.1:
            size[int(rng.integers(3))] = ["x", "-1", "1_0", str(n + 1), ""][int(rng.integers(5))]
        preamble = ["% a comment", "", "  "][: int(rng.integers(4))]
        text = "\n".join([" ".join(banner), *preamble, " ".join(size), *(" ".join(t) for t in entries)]) + "\n"
        for variant in (text, _relayout(text, layout)):
            expected = _mm_outcome(_load_mm_lines, variant)
            assert _mm_outcome(load, variant) == expected, repr(variant)
            messages.append(expected[1] if isinstance(expected[0], str) else "graph")
    for part in ["graph", "banner", "size line", "tokens, expected", "malformed", "out of bounds", "more entries", "found"]:
        assert sum(part in msg for msg in messages) >= 3, part
    assert any("99999999999999999999" in msg for msg in messages)


def _real_twin(tmp_path, last_value="7"):
    """A real MatrixMarket file of ~2 000 entries with values of every form
    float() reads, some indices written with a sign, and ``last_value`` in
    its last entry; and its pattern twin."""
    rng = np.random.default_rng(61)
    n, values = 300, ["-1.5e-3", "+2", ".5", "1.", "3E+2", "-0", "1_0", "inf", "nan", "-.25e1", "007"]
    pairs = rng.integers(1, n + 1, size=(2000, 2)).tolist()
    lines = [f"+{i} {j}" if k % 97 == 0 else f"{i} {j}" for k, (i, j) in enumerate(pairs)]
    vals = [values[k % len(values)] for k in range(len(lines) - 1)] + [last_value]
    head = "%%MatrixMarket matrix coordinate {} general\n" + f"{n} {n} {len(lines)}\n"
    real = write(tmp_path, "real.mtx", head.format("real") + "".join(f"{ln} {v}\n" for ln, v in zip(lines, vals)))
    pattern = write(tmp_path, "pattern.mtx", head.format("pattern") + "".join(ln + "\n" for ln in lines))
    return real, pattern


def test_mm_real_values_load_as_their_pattern(tmp_path, monkeypatch):
    from vsep.graphs import _Lines

    real, pattern = _real_twin(tmp_path)
    read_alone = []
    tokens = _Lines.tokens
    monkeypatch.setattr(_Lines, "tokens", lambda self, k: read_alone.append(k) or tokens(self, k))
    g = load_matrix_market(real)
    assert len(read_alone) == 21  # only the entries with a signed index go through int() and float()
    assert g == load_matrix_market(pattern) and g.m > 1900
    assert _mm_outcome(load_matrix_market, real) == _mm_outcome(_load_mm_lines, real.read_text())
    assert load_matrix_market(DATA / "p5_real.mtx") == path_graph(5)


def test_mm_bad_last_value_is_found_line_by_line(tmp_path):
    real, _ = _real_twin(tmp_path, last_value="1e")
    text = real.read_text()
    expected = _mm_outcome(_load_mm_lines, text)
    assert expected[0] == "ParseError" and "malformed entry" in expected[1] and expected[1].endswith(" 1e'")
    assert _mm_outcome(load_matrix_market, real) == expected


def test_mm_long_indices_of_real_entries_are_read_by_int(tmp_path):
    # more than 18 digits may overflow int64, so such an entry is read line by line
    for index in ("0000000000000000000002", "9999999999999999999", "99999999999999999999"):
        text = f"%%MatrixMarket matrix coordinate real general\n3 3 2\n{index} 1 2.5\n3 2 -1\n"
        expected = _mm_outcome(_load_mm_lines, text)
        assert _mm_outcome(load_matrix_market, write(tmp_path, "long.mtx", text)) == expected
        assert (expected == (3, {(0, 1), (1, 2)})) == (index[-1] == "2")


@pytest.mark.parametrize("blank", ["\x1f", "\xa0", "\u2003", "\u3000"])
def test_loaders_split_tokens_as_str_split(tmp_path, blank):
    # str.split splits at each of these as at a space, and none ends a line
    mtx = tmp_path / "p3.mtx"
    mtx.write_bytes(f"%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1{blank}2\n3{blank}2\n".encode())
    assert load_matrix_market(mtx) == path_graph(3)
    metis = tmp_path / "p3.graph"
    metis.write_bytes(f"3 2\n2\n1{blank}3\n2\n".encode())
    assert load_metis(metis) == path_graph(3)


def test_metis_round_trip_random(tmp_path):
    rng = np.random.default_rng(3)
    for trial in range(15):
        n = int(rng.integers(1, 14))
        base = gnp(n, 0.4, seed=100 + trial)
        edges = [(u, v, int(rng.integers(1, 6))) for u, v, _ in base.edges()]
        g = Graph.from_edges(
            n,
            edges,
            vertex_cost=rng.integers(0, 9, size=n),
            vertex_size=rng.integers(1, 4, size=n),
        )
        f = tmp_path / f"rt{trial}.graph"
        save_metis(g, f)
        assert load_metis(f) == g


def test_metis_round_trip_plain(tmp_path):
    g = cycle_graph(5)
    f = tmp_path / "c5.graph"
    save_metis(g, f)
    assert (f.read_text()) == "5 5\n2 5\n1 3\n2 4\n3 5\n1 4\n"
    assert load_metis(f) == g


# ------------------------------------------------------------------- validate


def test_validate_clean():
    assert validate(path_graph(3)) == []


def test_validate_self_loop():
    g = Graph(
        2,
        np.array([0, 1, 3]),
        np.array([1, 0, 1]),
        np.array([1, 1, 1]),
        np.ones(2, dtype=np.int64),
        np.ones(2, dtype=np.int64),
    )
    assert any(v.startswith("self-loop: 1") for v in validate(g))


def test_validate_asymmetry():
    g = Graph(
        2,
        np.array([0, 1, 1]),
        np.array([1]),
        np.array([1]),
        np.ones(2, dtype=np.int64),
        np.ones(2, dtype=np.int64),
    )
    assert validate(g) == ["asymmetry: (0, 1)"]


def test_validate_bad_vertex_data():
    g = Graph(
        2,
        np.array([0, 0, 0]),
        np.array([], dtype=np.int64),
        np.array([], dtype=np.int64),
        np.array([-1, 0]),
        np.array([1, 0]),
    )
    out = validate(g)
    assert "vertex-cost < 0: 0" in out
    assert "vertex-size < 1: 1" in out


def _graph(n, indptr, indices, weights, cost=None, size=None):
    ones = np.ones(n, dtype=np.int64)
    return Graph(
        n,
        np.array(indptr),
        np.array(indices, dtype=np.int64),
        np.array(weights, dtype=np.int64),
        ones if cost is None else np.array(cost),
        ones if size is None else np.array(size),
    )


@pytest.mark.parametrize(
    "g, expected",
    [
        (_graph(2, [0, 1, 5], [1, 0], [1, 1]), ["indptr-end: 5 != len(indices) = 2"]),
        (_graph(2, [0, 1, 2], [5, 0], [1, 1]), ["index-out-of-range: indices[0] = 5"]),
        (_graph(2, [0, 1, 2], [-1, 0], [1, 1]), ["index-out-of-range: indices[0] = -1"]),
        (_graph(2, [0, 2], [1, 0], [1, 1]), ["indptr-length: 2 != n + 1 = 3"]),
        (_graph(2, [1, 1, 2], [1, 0], [1, 1]), ["indptr-start: 1 != 0"]),
        (_graph(3, [0, 2, 1, 2], [1, 0], [1, 1]), ["indptr-decreasing: 1"]),
        (_graph(2, [0, 1, 2], [1, 0], [1]), ["weights-length: 1 != len(indices) = 2"]),
        (_graph(2, [0, 1, 2], [1, 0], [1, 1], cost=[1]), ["vertex-cost-length: 1 != n = 2"]),
        (_graph(2, [0, 1, 2], [1, 0], [1, 1], size=[1, 1, 1]), ["vertex-size-length: 3 != n = 2"]),
    ],
    ids=[
        "indptr-end",
        "index-too-large",
        "index-negative",
        "indptr-length",
        "indptr-start",
        "indptr-decreasing",
        "weights-length",
        "vertex-cost-length",
        "vertex-size-length",
    ],
)
def test_validate_malformed_csr(g, expected):
    assert validate(g) == expected


def _validate_loop(g):
    """Row-by-row reference for validate, for well-formed CSR arrays."""
    out = []
    for v in range(g.n):
        nbrs, ws = g.neighbors(v)
        seen = {}
        for j, w in zip(nbrs, ws):
            j = int(j)
            if j == v:
                out.append(f"self-loop: {v}")
            if j in seen:
                out.append(f"duplicate-neighbor: ({v}, {j})")
            seen[j] = int(w)
            if w < 1:
                out.append(f"edge-weight < 1: ({v}, {j})")
        for j, w in seen.items():
            if j == v:
                continue
            back, back_ws = g.neighbors(j)
            hits = np.flatnonzero(back == v)
            if hits.size == 0 or int(back_ws[hits[0]]) != w:
                out.append(f"asymmetry: ({v}, {j})")
    for v in range(g.n):
        if g.vertex_cost[v] < 0:
            out.append(f"vertex-cost < 0: {v}")
        if g.vertex_size[v] < 1:
            out.append(f"vertex-size < 1: {v}")
    return out


def _corrupted_graph(rng):
    """A random weighted graph with a few faults of each kind validate reports."""
    n = int(rng.integers(1, 12))
    rows = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.35:
                w = int(rng.integers(1, 4))
                rows[u].append([v, w])
                rows[v].append([u, w])
    cost = rng.integers(0, 4, size=n)
    size = rng.integers(1, 4, size=n)

    for _ in range(int(rng.integers(0, 4))):
        kind = int(rng.integers(7))
        v = int(rng.integers(n))
        if kind == 0:
            rows[v].append([v, int(rng.integers(0, 3))])  # self-loop
        elif kind == 1 and rows[v]:
            j, w = rows[v][int(rng.integers(len(rows[v])))]
            rows[v].append([j, w + int(rng.integers(0, 2))])  # duplicate neighbour
        elif kind == 2 and rows[v]:
            rows[v].pop(int(rng.integers(len(rows[v]))))  # missing mirror
        elif kind == 3 and rows[v]:
            rows[v][int(rng.integers(len(rows[v])))][1] += 1  # unequal mirror weight
        elif kind == 4 and rows[v]:
            rows[v][int(rng.integers(len(rows[v])))][1] = int(rng.integers(-1, 1))  # weight < 1
        elif kind == 5:
            cost[v] = -1
        elif kind == 6:
            size[v] = 0
    for r in rows:
        if rng.random() < 0.7:
            r.sort()
        else:
            rng.shuffle(r)  # unsorted row
    indptr = np.cumsum([0] + [len(r) for r in rows])
    flat = [e for r in rows for e in r]
    return _graph(n, indptr, [j for j, _ in flat], [w for _, w in flat], cost, size)


def test_validate_matches_loop_reference():
    rng = np.random.default_rng(2024)
    faulty = 0
    for _ in range(200):
        g = _corrupted_graph(rng)
        expected = _validate_loop(g)
        assert validate(g) == expected
        faulty += bool(expected)
    assert faulty > 100


def _symmetric_graph(rng, n, m):
    """A valid graph of n vertices and m random weighted edges, rows in CSR order."""
    u, v = rng.integers(0, n, size=(2, 3 * m))
    keys = np.unique(np.minimum(u, v)[u != v] * n + np.maximum(u, v)[u != v])
    keys = rng.permutation(keys)[:m]
    return Graph.from_edges(n, np.column_stack((keys // n, keys % n, rng.integers(1, 5, keys.size))))


def test_validate_matches_loop_reference_on_large_graphs():
    """Symmetric graphs of at least 10 000 entries, whose mirror lookups
    span many rows, clean and with one broken mirror."""
    rng = np.random.default_rng(77)
    for n, m in ((1500, 5000), (6000, 7000)):
        g = _symmetric_graph(rng, n, m)
        assert g.indices.size >= 10_000
        assert validate(g) == _validate_loop(g) == []
        weights = g.weights.copy()
        weights[int(rng.integers(weights.size))] += 1  # one entry no longer equals its mirror
        broken = _graph(n, g.indptr, g.indices, weights)
        expected = _validate_loop(broken)
        assert len(expected) == 2 and all(rec.startswith("asymmetry: ") for rec in expected)
        assert validate(broken) == expected


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, np.zeros((1, 4), dtype=np.int64))
    with pytest.raises(ValueError, match="length n"):
        Graph.from_edges(2, [(0, 1)], vertex_cost=[1, 1, 1])
    with pytest.raises(ValueError, match="length n"):
        Graph.from_edges(2, [(0, 1)], vertex_size=[1])
    with pytest.raises(ValueError, match="costs"):
        Graph.from_edges(2, [(0, 1)], vertex_cost=[1, -1])
    with pytest.raises(ValueError, match="sizes"):
        Graph.from_edges(2, [(0, 1)], vertex_size=[1, 0])


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize(
    "edges, extra, match",
    [
        ([(0, 1.7, 1), (1, 2, 1)], {}, r"edges\[0\] = \[0\.0, 1\.7, 1\.0\] is not integral"),
        ([(0, 1, 1), (1, 2, 2.5)], {}, r"edges\[1\] = \[1\.0, 2\.0, 2\.5\] is not integral"),
        ([(0, 1, 1), (1, 2, np.nan)], {}, r"edges\[1\] = \[1\.0, 2\.0, nan\]"),
        ([(0, 1, 1), (1, 2, 2.0**63)], {}, r"edges\[1\]"),  # integral, but beyond int64
        ([(0, 1), (1, 2)], {"vertex_cost": [1, 1.5, 2]}, r"vertex_cost\[1\] = 1\.5 is not integral"),
        ([(0, 1), (1, 2)], {"vertex_cost": [1, 2, np.inf]}, r"vertex_cost\[2\] = inf"),
        ([(0, 1), (1, 2)], {"vertex_size": [1.9, 2.2, 1]}, r"vertex_size\[0\] = 1\.9 is not integral"),
    ],
    ids=["endpoint", "weight", "nan-weight", "int64-overflow", "cost", "inf-cost", "size"],
)
def test_from_edges_rejects_non_integral_values(edges, extra, match, as_array):
    # a cast to int64 would truncate each of these without a word
    if as_array:
        edges = np.array(edges, dtype=float)
        extra = {key: np.array(values) for key, values in extra.items()}
    with pytest.raises(ValueError, match=match):
        Graph.from_edges(3, edges, **extra)


def test_from_edges_takes_integral_floats():
    edges = np.array([[0, 1, 2], [1, 2, 1]], dtype=float)
    given = Graph.from_edges(3, edges, vertex_cost=[1.0, 0.0, 3.0], vertex_size=np.array([1.0, 2, 1]))
    assert given == Graph.from_edges(3, [(0, 1, 2), (1, 2)], vertex_cost=[1, 0, 3], vertex_size=[1, 2, 1])


def _from_edges_loop(n, edges, vertex_cost=None, vertex_size=None):
    """Edge-by-edge reference for Graph.from_edges."""
    seen = {}
    for e in edges:
        u, v = int(e[0]), int(e[1])
        w = int(e[2]) if len(e) > 2 else 1
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if w < 1:
            raise ValueError(f"edge ({u}, {v}) has weight {w} < 1")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen[key] = w
    adj = [[] for _ in range(n)]
    for (u, v), w in seen.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    indptr, indices, weights = [0], [], []
    for row in adj:
        row.sort()
        indptr.append(indptr[-1] + len(row))
        indices.extend(j for j, _ in row)
        weights.extend(w for _, w in row)
    ones = np.ones(n, dtype=np.int64)
    return Graph(
        n,
        np.array(indptr),
        np.array(indices, dtype=np.int64),
        np.array(weights, dtype=np.int64),
        ones if vertex_cost is None else np.asarray(vertex_cost),
        ones if vertex_size is None else np.asarray(vertex_size),
    )


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


def test_from_edges_matches_loop_reference():
    rng = np.random.default_rng(5)
    raised = 0
    for trial in range(150):
        n = int(rng.integers(1, 15))
        base = gnp(n, 0.4, seed=700 + trial)
        edges = [(v, u, int(rng.integers(1, 6))) if rng.random() < 0.5 else (u, v, int(rng.integers(1, 6)))
                 for u, v, _ in base.edges()]
        rng.shuffle(edges)
        good = list(edges)
        if trial % 2:
            for _ in range(int(rng.integers(1, 3))):
                u, v = (int(x) for x in rng.integers(0, n, size=2))
                bad = [(u, n + int(rng.integers(0, 3))), (-1, v), (u, u), (u, v, int(rng.integers(-1, 1)))]
                if good:
                    a, b, w = good[int(rng.integers(len(good)))]
                    bad += [(b, a, w), (a, b)]  # duplicates
                edges.insert(int(rng.integers(len(edges) + 1)), bad[int(rng.integers(len(bad)))])
        expected = _outcome(_from_edges_loop, n, edges)
        raised += isinstance(expected, str)
        assert _outcome(Graph.from_edges, n, edges) == expected
        weighted = np.array([(*e[:2], e[2] if len(e) > 2 else 1) for e in edges], dtype=np.int64)
        assert _outcome(Graph.from_edges, n, weighted.reshape(-1, 3)) == expected
        pairs = [e[:2] for e in edges]
        assert _outcome(Graph.from_edges, n, np.array(pairs, dtype=np.int64).reshape(-1, 2)) == _outcome(
            _from_edges_loop, n, pairs
        )
    assert raised > 40


def test_loaders_match_from_edges_on_rgg(tmp_path):
    from scipy.spatial import cKDTree

    n = 2000
    rng = np.random.default_rng(11)
    pairs = cKDTree(rng.random((n, 2))).query_pairs(r=0.035, output_type="ndarray")
    w = rng.integers(1, 5, size=len(pairs))
    cost = rng.integers(0, 4, size=n)
    g = Graph.from_edges(n, np.column_stack((pairs, w)), vertex_cost=cost)
    assert g == _from_edges_loop(n, [tuple(e) for e in np.column_stack((pairs, w))], vertex_cost=cost)
    assert validate(g) == [] and g.m == len(pairs)

    # METIS with vertex and edge weights, neighbours listed in shuffled order
    lines = [f"{n} {g.m} 011 1"]
    for u in range(n):
        nbrs, ws = g.neighbors(u)
        tokens = [f"{v + 1} {x}" for v, x in zip(nbrs, ws)]
        rng.shuffle(tokens)
        lines.append(" ".join([str(cost[u])] + tokens))
    assert load_metis(write(tmp_path, "rgg.graph", "\n".join(lines) + "\n")) == g

    # MatrixMarket: both triangles, repeated entries and diagonal entries, shuffled
    entries = np.vstack((pairs, pairs[:, ::-1], pairs[:100], np.repeat(np.arange(0, n, 7), 2).reshape(-1, 2))) + 1
    entries = entries[rng.permutation(len(entries))]
    text = "%%MatrixMarket matrix coordinate real general\n" + f"{n} {n} {len(entries)}\n"
    text += "".join(f"{i} {j} {rng.normal():.3f}\n" for i, j in entries)
    assert load_matrix_market(write(tmp_path, "rgg.mtx", text)) == Graph.from_edges(n, pairs)




def test_graph_is_immutable():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.indices.setflags(write=True)  # else the graph's checked mark could go stale
    with pytest.raises(ValueError):
        g.indices[0] = 2
    assert g._checked and validate(g) == []


# ------------------------------------------------------------- checked graphs

DATA = Path(__file__).parent / "data"


def test_constructors_copy_the_callers_arrays():
    cost = np.array([1, 2, 3])
    g = Graph.from_edges(3, [(0, 1), (1, 2)], vertex_cost=cost, vertex_size=cost)
    fields = ("indptr", "indices", "weights", "vertex_cost", "vertex_size")
    given = [np.array(getattr(g, f)) for f in fields]
    h = Graph(3, *given)
    pairs = [(cost, g.vertex_cost), (cost, g.vertex_size)] + [(a, getattr(h, f)) for a, f in zip(given, fields)]
    for theirs, ours in pairs:
        assert theirs.flags.writeable and not ours.flags.writeable
        assert not np.shares_memory(theirs, ours)
    cost[0] = 9
    given[3][0] = 9
    assert g.vertex_cost[0] == h.vertex_cost[0] == 1


def _built_graphs(tmp_path):
    """Graphs from the constructors that mark a graph checked: the METIS files
    in tests/data, seeded random edge lists with weights, costs and sizes,
    their save_metis round trips, and MatrixMarket files of their edges
    with both triangles, repeats and diagonal entries."""
    for f in sorted(DATA.glob("*.graph")):
        yield load_metis(f)
    rng = np.random.default_rng(83)
    for trial in range(24):
        n = int(rng.integers(1, 40))
        pairs = np.argwhere(np.triu(rng.random((n, n)) < 0.2, 1))
        pairs = pairs[rng.permutation(len(pairs))]
        edges = np.column_stack((pairs, rng.integers(1, 6, size=len(pairs))))
        g = Graph.from_edges(
            n,
            edges if trial % 2 else [tuple(e) for e in edges.tolist()],
            vertex_cost=rng.integers(0, 9, size=n),
            vertex_size=rng.integers(1, 4, size=n).tolist(),
        )
        yield g
        f = tmp_path / f"rt{trial}.graph"
        save_metis(g, f)
        yield load_metis(f)
        entries = np.vstack((pairs, pairs[:, ::-1], pairs[:3], np.repeat(np.arange(0, n, 5), 2).reshape(-1, 2))) + 1
        text = f"%%MatrixMarket matrix coordinate pattern general\n{n} {n} {len(entries)}\n"
        yield load_matrix_market(write(tmp_path, f"rt{trial}.mtx", text + "".join(f"{i} {j}\n" for i, j in entries)))


def test_built_graphs_are_valid(tmp_path):
    graphs = list(_built_graphs(tmp_path))
    assert len(graphs) == 73 and sum(g.m for g in graphs) > 1000
    for g in graphs:
        assert g._checked and validate(g) == []


def test_no_graph_array_can_be_unlocked(tmp_path):
    loaded = load_metis(DATA / "grid12.graph")
    sorted_lines = write(tmp_path, "sorted.graph", "3 2 111 1\n1 2 2 4\n1 0 1 4 3 5\n2 7 2 5\n")
    unsorted_lines = write(tmp_path, "unsorted.graph", "3 2\n2\n3 1\n2\n")
    mtx = write(tmp_path, "p3.mtx", "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 -1.5\n3 2 1e3\n")
    graphs = [
        Graph(3, [0, 1, 3, 4], [1, 0, 2, 1], [1, 1, 1, 1], [1, 1, 1], [1, 1, 1]),
        Graph.from_edges(3, [(0, 1), (1, 2)]),
        Graph.from_edges(3, np.array([[0, 1, 2], [1, 2, 3]]), vertex_cost=np.array([1, 2, 3])),
        loaded,
        load_metis(sorted_lines),
        load_metis(unsorted_lines),
        load_matrix_market(mtx),
        copy.copy(loaded),
        copy.deepcopy(loaded),
        pickle.loads(pickle.dumps(loaded)),
        dataclasses.replace(loaded, weights=np.array(loaded.weights)),
    ]
    assert graphs[4] == Graph.from_edges(3, [(0, 1, 4), (1, 2, 5)], vertex_cost=[2, 0, 7], vertex_size=[1, 1, 2])
    assert graphs[5] == graphs[6] == path_graph(3) == graphs[0]
    fields = ("indptr", "indices", "weights", "vertex_cost", "vertex_size")
    assert [unlockable(g, fields) for g in graphs] == [[]] * len(graphs)


def test_copies_of_a_built_graph_are_not_checked():
    g = load_metis(DATA / "grid12.graph")
    copies = [
        Graph(g.n, g.indptr, g.indices, g.weights, g.vertex_cost, g.vertex_size),
        dataclasses.replace(g),
        copy.copy(g),
        copy.deepcopy(g),
        pickle.loads(pickle.dumps(g)),
    ]
    for h in copies:
        assert h == g and not h._checked
    assert g._checked

