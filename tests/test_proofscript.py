import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apollo.errors import NodeNotFound, NoProofBody, UnterminatedComment
from apollo.proofscript import (
    KIND_HAVE,
    KIND_TACTIC,
    body_lines,
    count_sorries,
    mask_regions,
    normalize,
    parse_script,
    replace_lines,
    serialize,
    statement_matches,
)
from conftest import corpus_scripts

NESTED = """import Mathlib

theorem demo (x : ℝ) (hx : 0 < x) : x ^ 2 + 1 > 0 := by
  have h4 : x ^ 2 >= 0 := by
    apply sq_nonneg
    all_goals norm_num
    done
  nlinarith [h4]
"""


def test_have_opens_child_of_three_lines():
    script = parse_script(NESTED)
    have = script.node((0,))
    assert have.kind == KIND_HAVE
    assert (have.first, have.last) == (4, 7)
    assert script.line(have.first)[0] == "  have h4 : x ^ 2 >= 0 := by"
    assert len(have.children) == 1
    child = have.children[0]
    assert child.kind == KIND_TACTIC
    assert (child.first, child.last) == (5, 7)
    assert child.line_count(script.text) == 3


def test_single_line_proof_parses_to_one_tactic_child():
    script = parse_script("theorem t : 1 = 1 := by rfl")
    assert len(script.root.children) == 1
    node = script.root.children[0]
    assert node.kind == KIND_TACTIC and node.inline
    assert count_sorries(script) == 0


@pytest.mark.parametrize("path", corpus_scripts(), ids=lambda p: p.name)
def test_corpus_round_trip(path):
    source = path.read_text(encoding="utf-8")
    assert serialize(parse_script(source)) == normalize(source)


def test_span_invariants_on_corpus():
    for path in corpus_scripts():
        script = parse_script(path.read_text(encoding="utf-8"))
        for parent_path, node in script.walk():
            last_end = None
            for child in node.children:
                if parent_path or node.indent >= 0:
                    assert child.first >= node.first
                    assert child.last <= node.last
                if last_end is not None:
                    assert child.first > last_end
                last_end = child.last
                if node.indent >= 0:
                    assert child.indent > node.indent


def test_every_body_line_belongs_to_exactly_one_node():
    script = parse_script(NESTED)
    owners = {}
    for path, node in script.walk():
        if not path:
            continue
        for line in range(node.first, node.last + 1):
            if node.children and line > node.first:
                continue  # child region
            owners.setdefault(line, []).append(path)
    assert all(len(v) == 1 for v in owners.values())


def test_no_proof_body():
    with pytest.raises(NoProofBody):
        parse_script("theorem t : 1 = 1 := rfl")
    with pytest.raises(NoProofBody):
        parse_script("def foo := 3")


def test_unterminated_block_comment():
    with pytest.raises(UnterminatedComment):
        parse_script("/- oops\ntheorem t : 1 = 1 := by rfl")


def test_mask_regions_hides_comments_and_strings():
    masked = mask_regions('x -- sorry\ny "sorry" /- sorry -/ z')
    assert "sorry" not in masked
    assert masked.count("\n") == 1
    assert len(masked) == len('x -- sorry\ny "sorry" /- sorry -/ z')


def test_count_sorries_ignores_comments_and_strings():
    source = (
        "theorem t : 1 = 1 := by\n"
        "  -- sorry\n"
        "  have h : \"sorry\" = \"sorry\" := rfl\n"
        "  sorry\n"
    )
    assert count_sorries(parse_script(source)) == 1


def test_count_sorries_counts_admit():
    script = parse_script("theorem t : 1 = 1 := by\n  admit")
    assert count_sorries(script) == 1


def _remove_block(script, path):
    node = script.node(path)
    edit = (node.first, node.last, [])
    return parse_script(replace_lines(script.text, [edit]))


def test_remove_block_drops_header_plus_body():
    script = parse_script(NESTED)
    before = script.root.line_count(script.text)
    after = _remove_block(script, (0,))
    assert before - after.root.line_count(after.text) == 4  # header + 3 lines


def test_replace_lines_out_of_range_raises():
    script = parse_script(NESTED)  # 8 lines, then the empty tail after the last newline
    for first, last in [(0, 0), (1, -1), (5, 3), (3, 10), (11, 10)]:
        with pytest.raises(NodeNotFound):
            replace_lines(script.text, [(first, last, ["  sorry"])])
        with pytest.raises(NodeNotFound):  # also beside an edit that is in range
            replace_lines(script.text, [(1, 1, ["x"]), (first, last, ["  sorry"])])
    with pytest.raises(NodeNotFound):
        script.node((9, 9))


@pytest.mark.parametrize("edits", [
    [(2, 3, []), (3, 4, [])],  # share line 3
    [(2, 4, []), (3, 3, ["x"])],  # one inside the other
    [(5, 5, ["x"]), (5, 5, ["y"])],  # the same line twice
    [(4, 3, ["x"]), (4, 3, ["y"])],  # two inserts at one place
    [(2, 4, []), (4, 3, ["x"])],  # an insert inside a replaced range
])
def test_replace_lines_overlap_raises(edits):
    with pytest.raises(NodeNotFound):
        replace_lines(NESTED, edits)
    with pytest.raises(NodeNotFound):
        replace_lines(NESTED, edits[::-1])


def test_replace_lines_with_no_edits_returns_text():
    assert replace_lines(NESTED, []) == NESTED


def test_remove_line_changes_only_that_line():
    script = parse_script(NESTED)
    target = script.node((0,)).children[0].first
    out = replace_lines(script.text, [(target, target, [])])
    old = serialize(script).split("\n")
    new = out.split("\n")
    assert len(old) == len(new) + 1
    assert new == old[: target - 1] + old[target:]


def test_edits_do_not_mutate_input():
    script = parse_script(NESTED)
    text_before = serialize(script)
    edits = [(9, 8, ["  sorry"]), (5, 5, ["    norm_num"]), (2, 2, [])]
    edits_before = [(first, last, list(lines)) for first, last, lines in edits]
    _remove_block(script, (0,))
    replace_lines(script.text, edits)
    assert serialize(script) == text_before
    assert edits == edits_before


def test_insert_sorry_increments_count():
    script = parse_script(NESTED)
    end = script.node((1,)).last
    out = replace_lines(script.text, [(end + 1, end, ["  sorry"])])  # inserts after `end`
    assert count_sorries(parse_script(out)) == count_sorries(script) + 1
    old, new = serialize(script).split("\n"), out.split("\n")
    assert new == old[:end] + ["  sorry"] + old[end:]


def test_empty_body_serializes_with_lone_sorry(plain_session):
    script = parse_script(NESTED)
    emptied = _remove_block(_remove_block(script, (1,)), (0,))
    text = serialize(emptied)
    assert text.rstrip().endswith("sorry")
    result = plain_session.check(text.replace("import Mathlib\n", ""))
    assert result.status == "pass_with_sorries"


def test_empty_body_parses_to_a_tree_that_holds_its_sorry():
    script = parse_script("theorem t : 1 = 1 := by\n")
    assert serialize(script) == "theorem t : 1 = 1 := by\n  sorry\n"
    (node,) = script.root.children
    assert node.kind == KIND_TACTIC and node.first == node.last == 2
    assert script.line(2) == ("  sorry", "  sorry")
    assert script.node_at_line(2) == ((0,), node)
    assert script.root.line_count(script.text) == 1


def test_line_is_masked_in_the_context_of_its_script():
    script = parse_script("theorem t : 1 = 1 := by\n"
                          "  have h : 1 = 1 := by frob /- a\n"
                          "    b -/\n"
                          "  rfl\n")
    assert len(script.masked) == len(script.text)
    assert script.line(2) == ("  have h : 1 = 1 := by frob /- a",
                              "  have h : 1 = 1 := by frob" + " " * 5)
    assert script.line(3) == ("    b -/", "        ")
    assert script.line(4) == ("  rfl", "  rfl")


def test_line_blanks_the_statement_on_an_inline_by_line():
    script = parse_script('theorem t : 1 = 1 := by rfl -- "x"')
    assert script.line(1) == (" " * 24 + 'rfl -- "x"', " " * 24 + "rfl" + " " * 7)
    assert script.text.split("\n")[0] == 'theorem t : 1 = 1 := by rfl -- "x"'


def assert_tree_indexes_text(script):
    """Each node's own lines (its span less its children's), depth first,
    are the non-blank body lines."""
    emitted = []
    for path, node in script.walk():
        if path:
            own_last = node.children[0].first - 1 if node.children else node.last
            emitted += [script.line(no)[0] for no in range(node.first, own_last + 1)]
    assert [line for line in emitted if line.strip()] == [
        line for line in body_lines(script) if line.strip()]


@pytest.mark.parametrize("path", corpus_scripts(), ids=lambda p: p.name)
def test_tree_indexes_text_on_corpus(path):
    assert_tree_indexes_text(parse_script(path.read_text(encoding="utf-8")))


def test_replace_span_text_swaps_sorry():
    script = parse_script("theorem t : 2 + 2 = 4 := by\n  sorry")
    out = replace_lines(script.text, [(2, 2, ["  norm_num"])])
    assert out == "theorem t : 2 + 2 = 4 := by\n  norm_num\n"
    assert parse_script(out, script.statement).statement == script.statement


def test_with_statement_and_matching():
    script = parse_script(NESTED)
    assert statement_matches(script, script.statement)
    other = script.statement.__class__(
        "demo", "", "theorem demo (x : ℝ) (hx : 0 < x) : x ^ 2 + 1 > 0  :=  by")
    assert statement_matches(script, other)


def test_tree_rebuilt_after_edit_satisfies_invariants():
    script = parse_script(NESTED)
    out = parse_script(replace_lines(script.text, [(4, 7, ["  have h4 : x ^ 2 >= 0 := by sorry"])]))
    for path, node in out.walk():
        for child in node.children:
            assert child.first >= node.first
            assert child.last <= node.last


_IDENT = st.sampled_from(["norm_num", "ring_nf", "linarith", "simp", "omega"])
_BLANK = st.sampled_from(["", "  ", "\t"])


@st.composite
def random_proof(draw):
    """Nested haves with blank lines (one may follow `by`), comment lines,
    trailing whitespace and, at times, an inline first tactic."""
    head = "theorem rand_thm (x : ℝ) (h : x = 1) : x + 0 = 1 := by"
    if draw(st.booleans()):
        head += " " * draw(st.integers(1, 3)) + draw(_IDENT)
    lines = [head]
    if draw(st.booleans()):
        lines.append(draw(_BLANK))
    depth = 1
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.integers(0, 5))
        if kind == 0 and depth < 4:
            lines.append("  " * depth + f"have h{len(lines)} : x = 1 := by")
            depth += 1
        elif kind == 1 and depth > 1:
            depth -= 1
            lines.append("  " * depth + draw(_IDENT))
        elif kind == 2:
            lines.append(draw(_BLANK))
        elif kind == 3:
            lines.append("  " * draw(st.integers(1, depth)) + "-- " + draw(_IDENT))
        else:
            lines.append("  " * depth + draw(_IDENT) + draw(_BLANK))
    lines.append("  " * depth + "rfl")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(random_proof())
def test_round_trip_on_random_indent_trees(source):
    assert serialize(parse_script(source)) == normalize(source)


@settings(max_examples=60, deadline=None)
@given(random_proof())
def test_tree_indexes_text_on_random_indent_trees(source):
    assert_tree_indexes_text(parse_script(source))


_NEW_LINES = st.lists(st.sampled_from(["", "  sorry", "  norm_num", "x"]), max_size=3)


@st.composite
def disjoint_edits(draw):
    """A text of numbered lines and non-overlapping edits over it, listed
    in random order: inserts, and replacements of one or more lines."""
    text = "\n".join(f"line {no}" for no in range(1, draw(st.integers(1, 10)) + 1)) + "\n"
    count = text.count("\n") + 1  # the empty tail after the last newline is a line too
    edits, line = [], 1
    while line <= count + 1:
        choice = draw(st.integers(0, 2))
        if choice == 1:
            edits.append((line, line - 1, draw(_NEW_LINES)))
        elif choice == 2 and line <= count:
            last = draw(st.integers(line, count))
            edits.append((line, last, draw(_NEW_LINES)))
            line = last
        line += 1
    return text, draw(st.permutations(edits))


@settings(max_examples=100, deadline=None)
@given(disjoint_edits())
def test_replace_lines_at_once_equals_one_at_a_time_bottom_up(case):
    text, edits = case
    lines = text.split("\n")
    for first, last, new_lines in sorted(edits, key=lambda e: e[:2], reverse=True):
        lines[first - 1 : last] = new_lines
    assert replace_lines(text, edits) == "\n".join(lines)
    assert replace_lines(text, edits[::-1]) == "\n".join(lines)
