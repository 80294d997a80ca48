"""Constructs the shipped catalog: one entry per classified bundle.

Most constructions are written out directly; the twisted Koszul
differentials behind the monad-style entries, the rank-5 entry's map on
P^4 with its one left syzygy, and the section matrix behind the transform
entry are generated from the package machinery so their many-term
matrices stay in sync with the sign conventions.

Expected-value tags: "stated" values are classification data being
re-verified, "derived" values were computed by an independent route and
frozen, "trivial" values are immediate.
"""

from __future__ import annotations

from itertools import combinations

from .catalog import parse_node, serialize_catalog
from .complexes import koszul
from .forms import Form, format_form, monomial_basis
from .graded import GradedMatrix
from .modp import DEFAULT_PRIME, kernel_basis, solve
from .sheaves import Cohomology


def _mat_json(m: GradedMatrix) -> dict:
    return {"src": list(m.src), "tgt": list(m.tgt),
            "rows": [[format_form(f) for f in row] for row in m.entries]}


def _coh(i, l, h, tag, ref) -> dict:
    return {"i": i, "l": l, "h": h, "tag": tag, "ref": ref}


def _x(nvars):
    return [Form.variable(nvars, i) for i in range(nvars)]


def _euler_ker(nvars: int, twist: int) -> dict:
    """Kernel of the coordinate row O(twist)^nvars -> O(twist+1)."""
    vs = [f"x{i}" for i in range(nvars)]
    return {"ker": {"matrix": {"src": [twist] * nvars, "tgt": [twist + 1],
                               "rows": [vs]}}}


def _tangent_minus_1(nvars: int) -> dict:
    """Quotient presentation of the twisted tangent sheaf O^n+1 / O(-1)."""
    return {"quot": {"matrix": {"src": [-1], "tgt": [0] * nvars,
                                "rows": [[f"x{i}"] for i in range(nvars)]},
                     "of": {"sum": [0] * nvars}}}


def _transform_of_line(nvars: int, d: int) -> dict:
    """Cokernel presentation of the transform of O(d): O^N / O(-d)."""
    monos = monomial_basis(nvars, d)
    rows = [[format_form(Form.monomial(nvars, e))] for e in monos]
    return {"quot": {"matrix": {"src": [-d], "tgt": [0] * len(monos),
                                "rows": rows},
                     "of": {"sum": [0] * len(monos)}}}


def _instanton_pair() -> tuple[dict, dict]:
    """Monad matrices of an explicit charge-2 bundle on P^3."""
    alpha = {"src": [0] * 6, "tgt": [1, 1],
             "rows": [["x0", "x1", "x2", "x3", "0", "0"],
                      ["0", "0", "x0", "x1", "x2", "x3"]]}
    beta = {"src": [-1, -1], "tgt": [0] * 6,
            "rows": [["x1", "x3"], ["-x0", "-x2"], ["x3", "x1"],
                     ["-x2", "-x0"], ["x1", "0"], ["-x0", "0"]]}
    return alpha, beta


def _monad_rank6(p: int) -> dict:
    """Construction of the rank-6 monad bundle on P^3.

    Middle term O(2)^2+O(1)^2+O^4, top row from the Koszul complex of
    (x0, x1, x2^2, x3^2), bottom column the Koszul pair-wedge glued with
    the coordinate column.
    """
    x = _x(4)
    kz = koszul([x[0], x[1], x[2] * x[2], x[3] * x[3]], p=p)
    p_row = kz.diff(1).twist(3)
    d2 = kz.diff(2).twist(3)
    pairs = list(combinations(range(4), 2))
    j23 = pairs.index((2, 3))
    s_col = [d2.entry(i, j23) for i in range(4)]
    middle = list(p_row.src) + [0, 0, 0, 0]
    top = GradedMatrix.row(4, middle, 3,
                           [p_row.entry(0, j) for j in range(4)] + ["0"] * 4, p)
    bottom = GradedMatrix.column(4, -1, middle, list(s_col) + list(x), p)
    if not top.compose(bottom).is_zero():
        raise AssertionError("monad column is not a cochain")
    return {"quot": {"matrix": _mat_json(bottom),
                     "of": {"ker": {"matrix": _mat_json(top)}}}}


def rank5_p4_chain(p: int):
    """The Koszul differentials of (x0, x1, x2, x3, x4^2) on P^4 twisted
    by 4, as {k: d_k} for k = 2..5, and the evaluation row u: C_4(4) ->
    O(2), a cochain (u ∘ d4 = 0).  The rank-5 entry is the dual of
    ker(d4^vee onto ker d5^vee) modulo u^vee."""
    y = _x(5)
    kz = koszul([y[0], y[1], y[2], y[3], y[4] * y[4]], p=p)
    d = {k: kz.diff(k).twist(4) for k in (2, 3, 4, 5)}
    x4sq = y[4] * y[4]
    assign = {(0, 1, 2): y[2], (0, 1, 3): y[3], (0, 1, 4): x4sq,
              (0, 2, 3): y[0], (1, 2, 3): y[1], (2, 3, 4): x4sq}
    entries = [assign.get(t, "0") for t in combinations(range(5), 3)]
    u = GradedMatrix.row(5, d[4].tgt, 2, entries, p)
    if not u.compose(d[4]).is_zero():
        raise AssertionError("evaluation row is not a cochain")
    return d, u


def _rank5_p4_kernel(p: int) -> dict:
    """Kernel presentation of the rank-5 entry on P^4: ker(M -> ker N).

    M stacks the Koszul differential d2 with a lift of the evaluation row
    through d3; N: ⊕O(tgt of M) -> O(4) is its one left syzygy of degree
    at most 4, found degree by degree on the transposed pieces.
    """
    d, u = rank5_p4_chain(p)
    # lift the evaluation row through d3: phi_hat ∘ d3 = u, solved on
    # degree-2 sections of the transposes
    d3t = d[3].dual()
    sol = solve(d3t.graded_piece(2), u.dual().graded_piece(2)[:, 0], p)
    if sol is None:
        raise AssertionError("no lift of the evaluation row to C_2(4)")
    phi_hat = GradedMatrix.from_piece(5, d3t.src, 2, sol[None], p).dual()
    m = d[2].stack(phi_hat)

    # left syzygies of m in degree c are the kernel of m^T on degree c
    mt = m.dual()
    for c in range(min(m.tgt), 4):
        if len(kernel_basis(mt.graded_piece(c), p)):
            raise AssertionError(f"a left syzygy in degree {c} < 4")
    syz = kernel_basis(mt.graded_piece(4), p)
    if len(syz) != 1:
        raise AssertionError(f"{len(syz)} left syzygies in degree 4, not one")
    n = GradedMatrix.from_piece(5, mt.src, 4, syz, p).dual()
    if not n.compose(m).is_zero():
        raise AssertionError("the syzygy does not annihilate the matrix")
    return {"ker": {"matrix": _mat_json(m),
                    "onto": {"ker": {"matrix": _mat_json(n)}}}}


def _staircase_monad(charge: int, p: int) -> dict:
    """Self-annihilating monad pair of the given charge on P^3.

    The top matrix lays (x0, x1, x2, x3) along a staircase with stride 2;
    the bottom columns are stride-2 shifts of (x3, -x2, x1, -x0), which
    pair to zero against every row overlap and stay fiberwise independent.
    """
    x = _x(4)
    ncols = 2 * charge + 2
    arows = [["0"] * ncols for _ in range(charge)]
    for i in range(charge):
        for k, v in enumerate(["x0", "x1", "x2", "x3"]):
            arows[i][2 * i + k] = v
    alpha = GradedMatrix.make(4, (0,) * ncols, (1,) * charge, arows, p)
    wave = [x[3], x[2].scale(-1), x[1], x[0].scale(-1)]
    brows = [[Form.zero(4, 1, p)] * charge for _ in range(ncols)]
    for j in range(charge):
        for k in range(4):
            brows[2 * j + k][j] = wave[k]
    beta = GradedMatrix.make(4, (-1,) * charge, (0,) * ncols, brows, p)
    if not alpha.compose(beta).is_zero():
        raise AssertionError("staircase pair is not a cochain")
    return {"quot": {"matrix": _mat_json(beta),
                     "of": {"ker": {"matrix": _mat_json(alpha)}}}}


def _kernel_onto_cotangent(p: int) -> dict:
    """Kernel of a six-column map onto the twice-twisted cotangent sheaf.

    Three columns are independent cotangent sections of low twist (one of
    them nondegenerate), three are fixed combinations of the canonical
    kernel basis in the next twist.
    """
    x = _x(4)
    euler2 = GradedMatrix.row(4, (2, 2, 2, 2), 3, x, p)
    w1 = [x[1], x[0].scale(-1), x[3], x[2].scale(-1)]
    w2 = [x[2], x[3].scale(-1), x[0].scale(-1), x[1]]
    w3 = [x[3], x[2], x[1].scale(-1), x[0].scale(-1)]
    kb = kernel_basis(euler2.graded_piece(0), p)
    picks = [kb[0] + 2 * kb[7], kb[3] + 5 * kb[11], kb[5] + 7 * kb[16] + 3 * kb[19]]
    secs = GradedMatrix.from_piece(4, (2, 2, 2, 2), 0, picks, p)
    rows = [[w1[i], w2[i], w3[i], *secs.entries[i]] for i in range(4)]
    phi = GradedMatrix.make(4, (1, 1, 1, 0, 0, 0), (2, 2, 2, 2), rows, p)
    return {"twist": {"by": 2, "of": {
        "ker": {"matrix": _mat_json(phi),
                "onto": {"ker": {"matrix": _mat_json(euler2)}}}}}}


def pair_kernel_rows(quadric_block) -> list:
    """Rows of the 2x6 map O^4 + O(-1)^2 -> O(1)^2 over a fixed point frame.

    The linear block has degeneracy scheme the four coordinate points; the
    quadric block determines the residual line of the construction.
    """
    (b1, b3), (b2, b4) = quadric_block
    return [["x0", "x1", "x2", "x3", b1, b3],
            ["2*x0", "3*x1", "x2", "0", b2, b4]]


EDGE_CLEAR_BLOCK = (("x0^2 + x1^2 + x2^2 + x3^2", "0"),
                    ("0", "x0^2 + 2*x1^2 + 3*x2^2 + 5*x3^2"))
# residual line V(x0 - x1, x2 - x3): meets the edge through the first two
# coordinate points at (1,1,0,0)
EDGE_CONTACT_BLOCK = (("x0^2 + x2^2", "x0^2 + x1^2 + x2^2"),
                      ("x0^2 + x1^2 + x2^2", "2*x0^2 + 3*x1^2 - x3^2"))


def _pair_kernel(quadric_block) -> dict:
    return {"twist": {"by": 2, "of": {"ker": {"matrix": {
        "src": [0, 0, 0, 0, -1, -1], "tgt": [1, 1],
        "rows": pair_kernel_rows(quadric_block)}}}}}


def _web_row_kernel() -> dict:
    """Rank-5 kernel of a linear form plus a five-quadric plane web.

    The web is dual to a nondegenerate quadratic form, so it contains no
    subspace of plane-linear multiples.
    """
    return {"twist": {"by": 2, "of": {"ker": {"matrix": {
        "src": [0, -1, -1, -1, -1, -1], "tgt": [1],
        "rows": [["x3", "x0*x1", "x0*x2", "x1*x2",
                  "x0^2 - x1^2", "x1^2 - x2^2"]]}}}}}


def _transform_of_tangent_twist(p: int) -> dict:
    """Quotient presentation of the transform of T(1) on P^2.

    The transform is the dual of K = ker(M: O^15 -> T(1)), M the section
    matrix of T(1), generated through the engine so the
    coset-representative choice matches verification exactly.  With T(1)
    = O(2)^3 / a O(1), and a injective on every fibre, K is also
    ker([M | -a]: O^15 + O(1) -> O(2)^3), so its dual is the quotient of
    O^15 + O(-1) by [M | -a]^vee.
    """
    t1 = parse_node({"twist": {"by": 2, "of": _tangent_minus_1(3)}}, 3, p)
    m = Cohomology(p=p).p_transform(t1).matrix
    a = t1.matrix
    neg_a = GradedMatrix.make(3, a.src, a.tgt, [[-f for f in row] for row in a.entries], p)
    return {"quot": {"matrix": _mat_json(m.dual().stack(neg_a.dual())),
                     "of": {"sum": [-b for b in m.src + a.src]}}}


def build_catalog(p: int = DEFAULT_PRIME) -> dict:
    entries = []

    def add(eid, n, construction, rank, c, gg="generated", coh=(), notes="",
            **extra):
        e = {"id": eid, "n": n, "construction": construction,
             "expected": {"chern": {"rank": rank, "c": list(c)},
                          "gg": gg}}
        if coh:
            e["expected"]["coh"] = list(coh)
        if notes:
            e["expected"]["notes"] = notes
        for k, v in extra.items():
            if k in ("gg_hints", "p_chern_fixed"):
                e["expected"][k] = v
            else:
                e[k] = v
        entries.append(e)

    tm1_p2 = _tangent_minus_1(3)
    tm1_p3 = _tangent_minus_1(4)

    # ---- plane classification, first Chern class 4 ----
    add("p2-c2-5-split", 2, {"sum": [1, 1, 2]}, 3, (4, 5),
        coh=[_coh(0, 0, 12, "trivial", "sections of a split sum")])
    add("p2-c2-6-split-tangent", 2,
        {"dsum": [{"sum": [1, 2]}, tm1_p2]}, 4, (4, 6))
    add("p2-c2-6-split-lines", 2, {"sum": [1, 1, 1, 1]}, 4, (4, 6))
    add("p2-c2-7-split-tangent-sq", 2,
        {"dsum": [{"sum": [2]}, tm1_p2, tm1_p2]}, 5, (4, 7))
    add("p2-c2-7-split-lines-tangent", 2,
        {"dsum": [{"sum": [1, 1, 1]}, tm1_p2]}, 5, (4, 7))
    add("p2-c2-8-split-transform", 2,
        {"dsum": [{"sum": [2]}, _transform_of_line(3, 2)]}, 6, (4, 8))
    add("p2-c2-8-split-tangent-sq", 2,
        {"dsum": [{"sum": [1, 1]}, tm1_p2, tm1_p2]}, 6, (4, 8))

    # ---- plane classification, first Chern class 5 ----
    add("p2-c1-5-line", 2, {"sum": [5]}, 1, (5, 0),
        coh=[_coh(0, 0, 21, "trivial", "quintics on the plane")])
    add("p2-c1-5-tangent-1", 2, {"twist": {"by": 2, "of": tm1_p2}}, 2, (5, 7))
    add("p2-c1-5-transform-tangent", 2, _transform_of_tangent_twist(p),
        13, (5, 18), gg="stated-only",
        notes="transform of the twisted tangent bundle; Chern data also "
              "follows from the transform formula on (5, 7)")
    add("p2-c1-5-transform-line", 2, _transform_of_line(3, 5), 20, (5, 25))

    # ---- negative control on the plane: special quadric web ----
    add("p2-negative-syzygy-web", 2,
        {"twist": {"by": 1, "of": {"ker": {"matrix": {
            "src": [0] * 5, "tgt": [2],
            "rows": [["x0^2", "x0*x1", "x0*x2", "x1^2", "x2^2"]]}}}}},
        4, (2, 4), gg="not-generated",
        gg_hints={"lines": [[[0, 1, 0], [0, 0, 1]]]},
        notes="the web contains every multiple of x0, so the syzygy sheaf "
              "splits off O(-2) on the line x0 = 0")

    # ---- space classification, first Chern class 4 ----
    add("p3-line-4", 3, {"sum": [4]}, 1, (4, 0, 0),
        coh=[_coh(0, 0, 35, "trivial", "quartics on space")])

    add("p3-ncorr-twist", 3,
        {"quot": {"matrix": {"src": [1], "tgt": [2, 2, 2, 2],
                             "rows": [["x1"], ["-x0"], ["x3"], ["-x2"]]},
                  "of": _euler_ker(4, 2)}},
        2, (4, 5, 0),
        coh=[_coh(0, 0, 16, "derived", "kernel dimension in degree 0"),
             _coh(1, -3, 1, "stated", "charge-one twisted bundle")],
        notes="quotient of the twisted cotangent kernel by a symplectic column")

    alpha, beta = _instanton_pair()
    add("p3-instanton2-instance", 3,
        {"twist": {"by": 2, "of": {"quot": {"matrix": beta,
                                            "of": {"ker": {"matrix": alpha}}}}}},
        2, (4, 6, 0), gg="generated-for-this-instance",
        coh=[_coh(0, -2, 0, "stated", "stability of the normalized sheaf"),
             _coh(1, -4, 0, "stated", "twisted first-cohomology vanishing")],
        notes="explicit self-annihilating monad pair, exactness certified")

    add("p3-mixed-kernel", 3,
        {"ker": {"matrix": {"src": [2, 2, 2, 1], "tgt": [3],
                            "rows": [["x0", "x1", "x2", "x3^2"]]}}},
        3, (4, 6, 2),
        coh=[_coh(0, 0, 14, "derived", "kernel dimension 34 - 20"),
             _coh(1, -3, 1, "stated", "c2=6 mixed kernel, low twist"),
             _coh(1, -2, 1, "stated", "c2=6 mixed kernel, mid twist"),
             _coh(1, -4, 0, "stated", "vanishing below the range")])

    add("p3-two-row-kernel", 3,
        {"ker": {"matrix": {"src": [2, 2, 2, 2, 2], "tgt": [3, 3],
                            "rows": [["x0", "x1", "x2", "x3", "0"],
                                     ["0", "x0", "x1", "x2", "x3"]]}}},
        3, (4, 7, 2),
        coh=[_coh(1, -3, 2, "stated", "c2=7 two-row kernel"),
             _coh(1, -1, 0, "stated", "zero-regularity"),
             _coh(2, -2, 0, "stated", "zero-regularity"),
             _coh(0, 0, 10, "derived", "kernel dimension 50 - 40")])

    add("p3-five-gen-kernel", 3,
        {"ker": {"matrix": {"src": [2, 2, 1, 1, 1], "tgt": [3],
                            "rows": [["x0", "x1", "x2^2", "x2*x3", "x3^2"]]}}},
        4, (4, 7, 4),
        coh=[_coh(1, -3, 1, "stated", "c2=7 five-generator kernel"),
             _coh(1, -2, 2, "stated", "c2=7 five-generator kernel")])

    add("p3-quadric-kernel-twist", 3,
        {"twist": {"by": 2, "of": {"ker": {"matrix": {
            "src": [0, 0, 0, 0], "tgt": [2],
            "rows": [["x0^2", "x1^2", "x2^2", "x3^2"]]}}}}},
        3, (4, 8, 0), p_chern_fixed=True,
        coh=[_coh(0, -2, 0, "derived", "no constant syzygies")],
        notes="kernel of a base-point-free quadric quadruple, twisted")

    add("p3-monad-rank6", 3, _monad_rank6(p), 6, (4, 8, 8), p_chern_fixed=True,
        coh=[_coh(0, -1, 1, "stated", "one section below the natural twist")],
        notes="middle cohomology of the eight-term monad")

    add("p3-instanton4-instance", 3,
        {"twist": {"by": 2, "of": _staircase_monad(4, p)}}, 2, (4, 8, 0),
        gg="generated-for-this-instance", p_chern_fixed=True,
        coh=[_coh(0, -2, 0, "stated", "stability of the normalized sheaf"),
             _coh(1, -4, 0, "stated", "twisted first-cohomology vanishing")],
        notes="staircase charge-4 monad instance")

    add("p3-kernel-onto-cotangent", 3, _kernel_onto_cotangent(p), 3, (4, 8, 2),
        gg="generated-for-this-instance", p_chern_fixed=True,
        notes="kernel of a six-column map onto the twice-twisted cotangent; "
              "the low-twist columns include a nondegenerate section")

    add("p3-pair-kernel-edge-clear", 3, _pair_kernel(EDGE_CLEAR_BLOCK),
        4, (4, 8, 4), gg="generated-for-this-instance", p_chern_fixed=True,
        notes="the residual line of this block misses every edge of the "
              "coordinate tetrahedron; the correspondence with the sampled "
              "verdict is exercised in the test suite")

    add("p3-pair-kernel-edge-contact", 3, _pair_kernel(EDGE_CONTACT_BLOCK),
        4, (4, 8, 4), gg="not-generated",
        gg_hints={"points": [[1, 1, 0, 0]]},
        notes="negative control: the residual line V(x0-x1, x2-x3) meets a "
              "tetrahedron edge at (1,1,0,0), where the fiber span fails")

    add("p3-webrow-kernel", 3, _web_row_kernel(), 5, (4, 8, 6),
        gg="generated-for-this-instance", p_chern_fixed=True,
        notes="rank-5 kernel over a plane web dual to a nondegenerate "
              "quadratic form")

    add("p3-transform-line-4", 3, _transform_of_line(4, 4), 34, (4, 16, 64),
        notes="transform of O(4); Chern data matches the transform formula")

    # ---- lower first Chern class entries used by the extension arguments ----
    add("p3-line-3", 3, {"sum": [3]}, 1, (3, 0, 0))
    add("p3-tangent-minus1", 3, tm1_p3, 3, (1, 1, 1),
        coh=[_coh(0, 0, 4, "trivial", "coordinate sections")])
    add("p3-cotangent-2", 3, _euler_ker(4, 1), 3, (2, 2, 0),
        coh=[_coh(0, 0, 6, "stated", "section count of the twisted cotangent")])

    add("p3-k-negative", 3,
        {"ker": {"matrix": {"src": [2, 2, 1, 1], "tgt": [3],
                            "rows": [["x0", "x1", "x2^2", "x3^2"]]}}},
        3, (3, 4, 0), gg="not-generated",
        gg_hints={"lines": [[[0, 0, 1, 0], [0, 0, 0, 1]]]},
        notes="negative control: restricting to the common zero line of the "
              "two linear entries splits off O(-1)")

    # ---- fourth and fifth projective spaces ----
    add("p4-cotangent-2", 4, _euler_ker(5, 1), 4, (3, 4, 2, 1),
        coh=[_coh(0, 0, 10, "trivial", "independent two-form sections")])

    y = _x(5)
    kz5 = koszul(y, p=p)
    d2_2 = kz5.diff(2).twist(2)
    d1_2 = kz5.diff(1).twist(2)
    add("p4-wedge2-cotangent-3", 4,
        {"twist": {"by": 1, "of": {"ker": {
            "matrix": _mat_json(d2_2),
            "onto": {"ker": {"matrix": _mat_json(d1_2)}}}}}},
        6, (3, 5, 5, 0),
        coh=[_coh(0, 0, 10, "derived", "three-form section count")])

    add("p4-rank5-kernel-twist", 4, _rank5_p4_kernel(p), 5, (4, 8, 8, 0),
        gg="generated-for-this-instance", p_chern_fixed=True,
        coh=[_coh(1, -1, 1, "stated", "rank-5 fourfold bundle"),
             _coh(1, -2, 1, "stated", "rank-5 fourfold bundle"),
             _coh(2, -3, 1, "stated", "rank-5 fourfold bundle"),
             _coh(2, -4, 1, "stated", "rank-5 fourfold bundle")],
        notes="kernel of a 6x10 map onto the kernel of its one quartic "
              "left syzygy; its dual is the Koszul dual-chain construction")

    add("p5-cotangent-2", 5, _euler_ker(6, 1), 5, (4, 7, 6, 3, 0),
        coh=[_coh(0, 0, 15, "derived", "two-form section count")])

    # ---- pencil classification entries ----
    def pencil(eid, rows, case, notes="", **expected):
        entries.append({
            "id": eid, "n": 3, "pencil_rows": rows,
            "expected": {"pencil": {"case": case, **expected},
                         **({"notes": notes} if notes else {})}})

    pencil("pencil-case-1",
           [["x0", "x1", "x2", "x3"], ["2*x0", "3*x1", "x2", "0"]], 1,
           partition=[1, 1, 1, 1],
           minor_ideal=["x0*x1", "x0*x2", "x0*x3", "x1*x2", "x1*x3", "x2*x3"],
           bound=4)
    pencil("pencil-case-5",
           [["x0", "x1", "x2", "x3"], ["x1", "x2", "x3", "0"]], 5,
           partition=[4],
           minor_ideal=["x1*x3", "x2*x3", "x3^2", "x2^2",
                        "x0*x3 - x1*x2", "x0*x2 - x1^2"],
           bound=4)
    pencil("pencil-case-6",
           [["x0", "x1", "x2", "0"], ["0", "x0", "x1", "x2"]], 6, m=1,
           minor_ideal=["x0^2", "x0*x1", "x0*x2", "x1^2", "x1*x2", "x2^2"],
           bound=4)
    pencil("pencil-case-7",
           [["x0", "x1", "0", "x2"], ["0", "x0", "x1", "x3"]], 7, m=2,
           minor_ideal=["x0^2", "x0*x1", "x1^2", "x1*x2", "x0*x3",
                        "x0*x2 - x1*x3"],
           bound=4)
    pencil("pencil-case-8",
           [["x0", "0", "x1", "x2"], ["0", "x0", "x2", "x3"]], 8, m=3,
           minor_ideal=["x0^2", "x0*x1", "x0*x2", "x0*x3", "x1*x3 - x2^2"],
           bound=4)

    return {"prime": p, "entries": entries}


def write_catalog(path, p: int = DEFAULT_PRIME) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_catalog(build_catalog(p)))


if __name__ == "__main__":
    import sys
    target = sys.argv[1] if len(sys.argv) > 1 else "catalog/catalog.json"
    write_catalog(target)
    print(f"wrote {target}")
