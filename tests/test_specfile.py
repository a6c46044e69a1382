import pytest

from rwalk import (FiniteGroup, Lattice, SpecFileError, WalkSpec,
                   format_walk_spec, parse_element_set, parse_walk_spec)

from conftest import FIXTURES


def read(name):
    return (FIXTURES / name).read_text()


def test_parse_bernoulli_fixture():
    spec = parse_walk_spec(read("bernoulli_025.spec"))
    assert spec.group == Lattice(1)
    assert spec.law.atoms == {(1,): 0.25, (-1,): 0.75}
    assert spec.options.seed == 42
    assert spec.options.horizon is None


def test_parse_finite_fixture():
    spec = parse_walk_spec(read("z6.spec"))
    assert isinstance(spec.group, FiniteGroup)
    assert spec.group.order == 6
    assert spec.law.atoms == {1: 0.5, 5: 0.5}
    assert spec.options.horizon == 400


def test_roundtrip_is_identity_on_atoms():
    for name in ("bernoulli_025.spec", "drift2d.spec", "z6.spec", "sym3d.spec"):
        spec = parse_walk_spec(read(name))
        again = parse_walk_spec(format_walk_spec(spec))
        assert again.law.atoms == spec.law.atoms  # bitwise float equality
        assert again.group == spec.group
        assert again.options == spec.options


def test_roundtrip_preserves_unround_floats():
    # repr() of a float parses back to the identical float
    spec = parse_walk_spec(read("bernoulli_025.spec"))
    tilted_like = {(1,): 0.5000000000000107, (-1,): 0.49999999999998945}
    from rwalk import Law
    law = Law(spec.group, tilted_like, sum_tol=1e-10)
    text = format_walk_spec(WalkSpec(spec.group, law, spec.options))
    again = parse_walk_spec(text)
    assert again.law.atoms == tilted_like


def test_bad_sum_names_law_block_and_line():
    with pytest.raises(SpecFileError, match="law block"):
        parse_walk_spec(read("bad_sum.spec"))
    try:
        parse_walk_spec(read("bad_sum.spec"))
    except SpecFileError as exc:
        assert exc.line == 3


def test_duplicate_atom_rejected():
    text = "group lattice 1\nlaw\n1 0.5\n1 0.5\n"
    with pytest.raises(SpecFileError, match="duplicate"):
        parse_walk_spec(text)


def test_wrong_coordinate_count():
    text = "group lattice 2\nlaw\n1 0.5\n-1 0.5\n"
    with pytest.raises(SpecFileError, match="coordinate"):
        parse_walk_spec(text)


def test_unknown_option_key():
    text = "group lattice 1\nlaw\n1 0.5\n-1 0.5\noptions\nwibble 3\n"
    with pytest.raises(SpecFileError, match="unknown key"):
        parse_walk_spec(text)


def test_bad_cayley_row_length():
    text = "group finite 2\ncayley\n0 1\n1\nlaw\n1 1.0\n"
    with pytest.raises(SpecFileError, match="cayley"):
        parse_walk_spec(text)


def test_corrupt_cayley_rejected_with_location():
    text = "group finite 2\ncayley\n0 1\n1 1\nlaw\n1 1.0\n"
    with pytest.raises(SpecFileError, match="Latin"):
        parse_walk_spec(text)


def test_finite_law_index_bounds():
    text = "group finite 2\ncayley\n0 1\n1 0\nlaw\n2 1.0\n"
    with pytest.raises(SpecFileError, match="outside"):
        parse_walk_spec(text)


def test_probability_range_checked():
    text = "group lattice 1\nlaw\n1 1.5\n-1 -0.5\n"
    with pytest.raises(SpecFileError, match="probability"):
        parse_walk_spec(text)


def test_missing_group_line():
    with pytest.raises(SpecFileError, match="group"):
        parse_walk_spec("law\n1 1.0\n")


Z2 = "group finite 2\ncayley\n  0 1\n  1 0\n"
L1 = "group lattice 1\n"
L1_LAW = L1 + "law\n  1 0.5\n  -1 0.5\n"

# (case, spec text, str(exc), exc.line): every rejection the parser makes,
# each naming the first offending line
SPEC_ERRORS = [
    ("empty", "", "file must start with a 'group' line", None),
    ("comment only", "# nothing\n\n", "file must start with a 'group' line", None),
    ("no group line", "law\n  1 0.5\n  -1 0.5\n",
     "line 1: file must start with a 'group' line", 1),
    ("group token count", "group lattice\n",
     "line 1: group line must be 'group lattice <d>' or 'group finite <order>'", 1),
    ("group extra token", "group lattice 1 2\n",
     "line 1: group line must be 'group lattice <d>' or 'group finite <order>'", 1),
    ("group kind", "group torus 2\n",
     "line 1: group line must be 'group lattice <d>' or 'group finite <order>'", 1),
    ("lattice dim not integer", "group lattice x\n",
     "line 1: group: expected integer, got 'x'", 1),
    ("lattice dim out of range", "group lattice 4\nlaw\n  1 0 0 0 1.0\n",
     "line 1: group: lattice dimension must be 1, 2 or 3, got 4", 1),
    ("finite order not integer", "group finite two\n",
     "line 1: group: expected integer, got 'two'", 1),
    ("finite order zero", "group finite 0\ncayley\nlaw\n  0 1.0\n",
     "line 1: cayley block: empty Cayley table", 1),
    ("finite order negative", "group finite -3\ncayley\n  0\n  0\nlaw\n  0 1.0\n",
     "line 1: cayley block: empty Cayley table", 1),
    ("cayley missing at end", "group finite 2\n",
     "line 1: finite group needs a 'cayley' block", 1),
    ("cayley missing before law", "group finite 2\nlaw\n  0 1.0\n",
     "line 2: finite group needs a 'cayley' block", 2),
    ("cayley header with token", "group finite 2\ncayley x\n  0 1\n  1 0\n",
     "line 2: finite group needs a 'cayley' block", 2),
    ("cayley rows missing", "group finite 2\ncayley\n  0 1\n",
     "line 1: cayley block: expected 2 rows", 1),
    ("cayley short row", "group finite 2\ncayley\n  0 1\n  1\nlaw\n  0 1.0\n",
     "line 4: cayley block: row has 1 entries, expected 2", 4),
    ("cayley law line as row", "group finite 2\ncayley\n  0 1\nlaw\n  0 1.0\n",
     "line 4: cayley block: row has 1 entries, expected 2", 4),
    ("cayley bad token before short row", "group finite 2\ncayley\n  0 x\n  1\n",
     "line 3: cayley: expected integer, got 'x'", 3),
    ("cayley short row before bad token", "group finite 2\ncayley\n  0\n  1 x\n",
     "line 3: cayley block: row has 1 entries, expected 2", 3),
    ("cayley not a group", "group finite 2\ncayley\n  0 1\n  0 1\nlaw\n  0 1.0\n",
     "line 1: cayley block: Cayley table is not a Latin square: column 0", 1),
    ("law missing at end", L1, "line 1: expected a 'law' block after the group", 1),
    ("law missing before options", L1 + "options\n  seed 1\n",
     "line 2: expected a 'law' block after the group", 2),
    ("law header with token", L1 + "law 1\n  1 1.0\n",
     "line 2: expected a 'law' block after the group", 2),
    ("law no atoms", L1 + "law\n", "line 2: law block: no atoms", 2),
    ("law no atoms before options", L1 + "law\noptions\n  seed 1\n",
     "line 2: law block: no atoms", 2),
    ("law token count", L1 + "law\n  1 2 0.5\n",
     "line 3: law block: expected 1 element coordinate(s) and a probability, "
     "got 3 token(s)", 3),
    ("law lattice element not integer", "group lattice 2\nlaw\n  1 y 1.0\n",
     "line 3: law element: expected integer, got 'y'", 3),
    ("law options line with token", L1_LAW + "options 2\n",
     "line 5: law element: expected integer, got 'options'", 5),
    ("law finite element not integer", Z2 + "law\n  one 1.0\n",
     "line 6: law element: expected integer, got 'one'", 6),
    ("law finite element out of range", Z2 + "law\n  0 0.5\n  2 0.5\n",
     "line 7: law block: element index 2 outside 0..1", 7),
    ("law finite element negative", Z2 + "law\n  -1 1.0\n",
     "line 6: law block: element index -1 outside 0..1", 6),
    ("law duplicate atom", L1 + "law\n  1 0.5\n  1 0.5\n",
     "line 4: law block: duplicate atom (1,)", 4),
    ("law probability not a number", L1 + "law\n  1 half\n",
     "line 3: law block: bad probability 'half'", 3),
    ("law probability zero", L1 + "law\n  1 0\n  -1 1.0\n",
     "line 3: law block: probability '0' outside (0, 1]", 3),
    ("law probability above one", L1 + "law\n  1 1.5\n",
     "line 3: law block: probability '1.5' outside (0, 1]", 3),
    ("law probability nan", L1 + "law\n  1 nan\n",
     "line 3: law block: probability 'nan' outside (0, 1]", 3),
    ("law mass short", L1 + "\nlaw\n  1 0.4\n  -1 0.5\n",
     "line 3: law block: law mass 0.9 differs from 1 by more than 1e-12", 3),
    ("options token count", L1_LAW + "options\n  seed\n",
     "line 6: options block: expected 'key value'", 6),
    ("options repeated header", L1_LAW + "options\noptions\n",
     "line 6: options block: expected 'key value'", 6),
    ("options unknown key", L1_LAW + "options\n  seed 1\n  colour 3\n",
     "line 7: options block: unknown key 'colour'", 7),
    ("options int value", L1_LAW + "options\n  horizon 1.5\n",
     "line 6: options block: bad value '1.5' for horizon", 6),
    ("options float value", L1_LAW + "options\n  growth_recurrent big\n",
     "line 6: options block: bad value 'big' for growth_recurrent", 6),
    ("options negative window", L1_LAW + "options\n  window_radius -1\n",
     "line 6: options block: window_radius must be >= 0", 6),
    ("options window on finite group", Z2 + "law\n  1 1.0\noptions\n  seed 1\n  window_radius 3\n",
     "line 9: options block: window_radius applies only to lattice groups", 9),
    ("options nan threshold", L1_LAW + "options\n  growth_recurrent nan\n",
     "line 6: options block: growth_recurrent must be finite, got 'nan'", 6),
    ("options inf threshold", L1_LAW + "options\n  growth_transient -inf\n",
     "line 6: options block: growth_transient must be finite, got '-inf'", 6),
]


@pytest.mark.parametrize("text, message, line", [c[1:] for c in SPEC_ERRORS],
                         ids=[c[0] for c in SPEC_ERRORS])
def test_spec_error_surface(text, message, line):
    with pytest.raises(SpecFileError) as info:
        parse_walk_spec(text)
    assert str(info.value) == message
    assert info.value.line == line


def test_comments_and_blank_lines_ignored():
    text = "# header\n\ngroup lattice 1  # inline\n\nlaw\n# atoms\n1 0.5\n-1 0.5\n"
    spec = parse_walk_spec(text)
    assert spec.law.atoms == {(1,): 0.5, (-1,): 0.5}


def test_parse_element_set():
    z2 = Lattice(2)
    assert parse_element_set("0,0", z2) == frozenset({(0, 0)})
    assert parse_element_set("1,2;3,-4", z2) == frozenset({(1, 2), (3, -4)})
    g = parse_walk_spec(read("z6.spec")).group
    assert parse_element_set("0;3", g) == frozenset({0, 3})
    with pytest.raises(SpecFileError):
        parse_element_set("9", g)
    with pytest.raises(SpecFileError):
        parse_element_set("", z2)


def test_parse_element_set_lets_a_programming_error_through(monkeypatch):
    # only the errors validate_element raises for a bad element are spec errors
    def broken(self, a):
        raise RuntimeError("bug")
    monkeypatch.setattr(Lattice, "validate_element", broken)
    with pytest.raises(RuntimeError, match="bug"):
        parse_element_set("0,0", Lattice(2))
