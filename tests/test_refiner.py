import dataclasses
import json
import random

import pytest

from apollo.errors import RefineError
from apollo.refiner import (
    RewriteRule,
    default_ruleset,
    load_rules,
    refine,
)
from conftest import corpus_scripts


def test_from_by_rewrite():
    out, applied = refine("theorem t : P from by tac")
    assert out == "theorem t : P := by tac"
    assert applied == ["from-by"]


def test_begin_end_block():
    out, applied = refine("theorem x : 1 = 1 := begin\n  ring\nend")
    assert out == "theorem x : 1 = 1 := by\n  ring"
    assert "begin-end" in applied


def test_rw_brackets():
    out, _ = refine("  rw h at hx")
    assert out == "  rw [h] at hx"
    out, _ = refine("  rw ← foo.bar")
    assert out == "  rw [← foo.bar]"
    out, applied = refine("  rw [h] at hx")
    assert out == "  rw [h] at hx" and applied == []


def test_obtain_trailing_comma_and_assume():
    out, applied = refine("  obtain ⟨x, hx⟩ := h,\n  assume hz")
    assert out == "  obtain ⟨x, hx⟩ := h\n  intro hz"
    assert set(applied) == {"obtain-trailing-comma", "assume-intro"}


def test_lean3_namespaces():
    out, _ = refine("  exact nat.le_of_lt (int.coe_nat_lt.mpr h)")
    assert out == "  exact Nat.le_of_lt (Int.coe_nat_lt.mpr h)"


def test_valid_script_unchanged():
    source = "theorem ok : 1 = 1 := by rfl"
    out, applied = refine(source)
    assert out == source and applied == []


def test_ruleset_structure():
    rules = default_ruleset()
    assert len(rules) >= 5
    assert all(r.description for r in rules)
    assert len({r.id for r in rules}) == len(rules)


@pytest.mark.parametrize("rule", default_ruleset(), ids=lambda r: r.id)
def test_each_rule_idempotent_on_corpus(rule):
    for path in corpus_scripts():
        source = path.read_text(encoding="utf-8")
        once, _ = refine(source, [rule])
        twice, _ = refine(once, [rule])
        assert twice == once, f"{rule.id} not idempotent on {path.name}"


def test_refine_idempotent_as_a_whole_on_corpus():
    for path in corpus_scripts():
        source = path.read_text(encoding="utf-8")
        once, _ = refine(source)
        twice, _ = refine(once)
        assert twice == once


def test_refine_on_passing_scripts_keeps_them_passing(plain_session):
    source = "theorem t : 2 + 2 = 4 := by\n  norm_num"
    assert plain_session.check(source).status == "pass"
    out, _ = refine(source)
    assert plain_session.check(out).status == "pass"


def test_ruleset_round_trips_through_file(tmp_path):
    path = tmp_path / "rules.jsonl"
    rules = default_ruleset()
    path.write_text("".join(json.dumps(dataclasses.asdict(rule)) + "\n"
                            for rule in rules), encoding="utf-8")
    assert load_rules(path) == rules


def test_bad_rule_file_rejected(tmp_path):
    path = tmp_path / "rules.jsonl"
    path.write_text('{"id": "x", "pattern": "([", "replacement": "y"}\n')
    with pytest.raises(RefineError):
        load_rules(path)


def test_rule_budget_exceeded():
    runaway = RewriteRule("grow", "a", "aa", "per-line", "pathological growth")
    with pytest.raises(RefineError):
        refine("a", [runaway])


_SNIPPETS = ["from by", "begin", "end", "rw h", "assume h", "nat.le"]


def comment_string_regions(text):
    """(start, end, kind) for every comment/string region, by re-lexing."""
    from apollo.proofscript import mask_regions

    masked = mask_regions(text)
    regions = []
    i = 0
    while i < len(text):
        if masked[i] != text[i]:
            j = i
            while j < len(text) and masked[j] != text[j]:
                j += 1
            regions.append((i, j))
            i = j
        else:
            i += 1
    return regions


def inject_noise(source, rng):
    """Drop rule-triggering text into comments and strings at random."""
    lines = source.split("\n")
    out = []
    for line in lines:
        out.append(line)
        if rng.random() < 0.3:
            snippet = rng.choice(_SNIPPETS)
            style = rng.random()
            if style < 0.4:
                out.append(f"  -- noise {snippet} noise")
            elif style < 0.7:
                out.append(f"  /- {snippet} inside block -/")
            else:
                out.append(f'  have s{rng.randrange(999)} : "{snippet}" = "{snippet}" := rfl')
    return "\n".join(out)


def run_injection_trials(n_trials, seed=20250810):
    rng = random.Random(seed)
    base_sources = [p.read_text(encoding="utf-8") for p in corpus_scripts()[:10]]
    for trial in range(n_trials):
        source = inject_noise(rng.choice(base_sources), rng)
        refined, _ = refine(source)
        before = [source[a:b] for a, b in comment_string_regions(source)]
        after = [refined[a:b] for a, b in comment_string_regions(refined)]
        assert before == after, f"comment/string region edited in trial {trial}"
    return n_trials


def test_refine_never_edits_comments_or_strings():
    assert run_injection_trials(200) == 200
