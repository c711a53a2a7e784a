"""Lean proof scripts: normalized source text indexed by a tree of
indentation-nested tactic blocks.

A script is its text, kept once with trailing whitespace normalized away,
and the mask of that text, lexed once when it is parsed: these are the
only copies.  The tree holds line numbers only, and its nesting mirrors
indentation; no attempt is made to understand the full Lean grammar.  Read
a body line and its mask through `ProofScript.line`.  Edit the text; the
caller parses what it keeps: every edit is one `replace_lines` call, which
applies many line ranges to a text at once and returns text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import NodeNotFound, NoProofBody, UnterminatedComment

KIND_HAVE = "have-block"
KIND_CASE = "case-block"
KIND_ANON = "anonymous-block"
KIND_TACTIC = "tactic-line"

_DECL_RE = re.compile(r"^[ \t]*(theorem|lemma|example)\b", re.MULTILINE)
_NAME_RE = re.compile(r"(theorem|lemma)\s+([^\s:({\[⦃]+)")
_SORRY_RE = re.compile(r"\b(sorry|admit)\b")

_OPEN_BRACKETS = "([{⟨⦃"
_CLOSE_BRACKETS = ")]}⟩⦄"


def mask_regions(text: str) -> str:
    """Return a same-length copy with comment and string contents blanked.

    Newlines are preserved so line/column arithmetic is unaffected.  Lean
    block comments nest; an unclosed one raises UnterminatedComment.  A
    string without a closing quote is masked to end of line rather than
    swallowing the rest of the file.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "-" and text.startswith("--", i):
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif ch == "/" and text.startswith("/-", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/-", j):
                    depth += 1
                    j += 2
                elif text.startswith("-/", j):
                    depth -= 1
                    j += 2
                else:
                    j += 1
            if depth:
                raise UnterminatedComment(f"block comment opened at offset {i} never closes")
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        elif ch == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 2 if text[j] == "\\" else 1
            if j < n and text[j] == '"':
                j += 1
            for k in range(i, j):
                out[k] = " "
            i = j
        else:
            i += 1
    return "".join(out)


def normalize(text: str) -> str:
    """Strip trailing whitespace per line and trailing blank lines."""
    lines = [ln.rstrip() for ln in text.split("\n")]
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TheoremStatement:
    name: str
    header: str
    statement_text: str
    informal_prefix: str | None = None


@dataclass
class ProofBlock:
    """Lines `first..last` of the script text (1-based, inclusive); the
    block's own lines are those its children do not span."""

    first: int
    last: int
    indent: int
    kind: str = KIND_TACTIC
    children: list[ProofBlock] = field(default_factory=list)
    inline: bool = False  # on the statement's `by` line

    def walk(self, path=()):  # yields (path, node) depth first
        yield path, self
        for i, child in enumerate(self.children):
            yield from child.walk(path + (i,))

    def contains_line(self, line: int) -> bool:
        return self.first <= line <= self.last

    def line_count(self, text: str) -> int:
        """Non-blank lines of the script `text` in the block's span."""
        return sum(1 for line in text.split("\n")[self.first - 1 : self.last] if line.strip())


@dataclass
class ProofScript:
    """A theorem's normalized source `text`, its mask `masked` (lexed once,
    same length), and the block tree that indexes both in lines: the text
    and its mask are the only copies.  `body_start_line` is the 1-based line
    of the first body line: the `by` line itself when the first tactic is
    inline."""

    statement: TheoremStatement
    root: ProofBlock
    text: str
    masked: str
    body_start_line: int

    def line(self, no: int) -> tuple[str, str]:
        """Line `no` of the text and of its mask, in context: a comment
        opened on an earlier line masks this one.  On the `by` line of an
        inline first tactic, everything through `by` is blanked."""
        start, end = self._starts[no - 1], self._starts[no] - 1
        text, masked = self.text[start:end], self.masked[start:end]
        if no == self.body_start_line and self.root.children[0].inline:
            cut = len(self.statement.statement_text.rsplit("\n", 1)[-1])
            text, masked = " " * cut + text[cut:], " " * cut + masked[cut:]
        return text, masked

    @cached_property
    def _starts(self) -> list[int]:  # the offset of each line, and one past the end
        return [0, *(m.end() for m in re.finditer("\n", self.text)), len(self.text) + 1]

    def node(self, path: tuple[int, ...]) -> ProofBlock:
        cur = self.root
        for idx in path:
            if idx >= len(cur.children):
                raise NodeNotFound(f"no node at path {path}")
            cur = cur.children[idx]
        return cur

    def walk(self):
        yield from self.root.walk()

    def node_at_line(self, line: int) -> tuple[tuple[int, ...], ProofBlock] | None:
        """Deepest node whose span contains the given line."""
        best = None
        for path, node in self.walk():
            if path and node.contains_line(line):
                if best is None or len(path) > len(best[0]):
                    best = (path, node)
        return best


def _statement_end(masked: str, decl_start: int) -> tuple[int, int]:
    """Offsets of the top-level `:=` and the end of the following `by`."""
    depth = 0
    i = decl_start
    n = len(masked)
    while i < n:
        ch = masked[i]
        if ch in _OPEN_BRACKETS:
            depth += 1
        elif ch in _CLOSE_BRACKETS:
            depth -= 1
        elif depth == 0 and masked.startswith(":=", i):
            j = i + 2
            while j < n and masked[j] in " \t\n":
                j += 1
            if masked.startswith("by", j) and (j + 2 >= n or not (masked[j + 2].isalnum() or masked[j + 2] == "_")):
                return i, j + 2
            return i, -1
        i += 1
    return -1, -1


def _locate_statement(masked: str, name: str | None) -> tuple[int, int]:
    """Find (decl_start, by_end) for the proof to operate on.

    Prefers the declaration matching `name`; otherwise the last declaration
    in the file, so that helper lemmas emitted above the target stay in the
    header region.
    """
    candidates = []
    for m in _DECL_RE.finditer(masked):
        kw_start = m.end() - len(m.group(1))
        nmatch = _NAME_RE.match(masked, kw_start)
        candidates.append((m.start(), nmatch.group(2) if nmatch else None))
    if not candidates:
        raise NoProofBody("no theorem/lemma/example declaration found")
    chosen = None
    if name:
        for start, nm in candidates:
            if nm == name:
                chosen = start
    if chosen is None:
        chosen = candidates[-1][0]
    assign_at, by_end = _statement_end(masked, chosen)
    if assign_at == -1 or by_end == -1:
        raise NoProofBody("declaration has no `:= by` tactic proof")
    return chosen, by_end


@dataclass
class _Line:
    no: int  # 1-based over the normalized source
    indent: int
    masked: str


def _kind_for(masked_line: str) -> str:
    stripped = masked_line.strip()
    if re.match(r"have\b", stripped):
        return KIND_HAVE
    if re.match(r"case\b", stripped):
        return KIND_CASE
    return KIND_ANON


def _build_region(lines: list[_Line], i: int, stop_indent: int) -> tuple[list[ProofBlock], int]:
    nodes: list[ProofBlock] = []
    region_indent = lines[i].indent
    run: list[_Line] = []

    def flush_run():
        if run:
            nodes.append(ProofBlock(run[0].no, run[-1].no, run[0].indent))
            run.clear()

    while i < len(lines):
        ln = lines[i]
        if ln.indent <= stop_indent or ln.indent < region_indent:
            break
        opener = i + 1 < len(lines) and lines[i + 1].indent > ln.indent
        if opener:
            flush_run()
            children, i = _build_region(lines, i + 1, ln.indent)
            nodes.append(ProofBlock(ln.no, children[-1].last, ln.indent,
                                    _kind_for(ln.masked), children))
        else:
            run.append(ln)
            i += 1
    flush_run()
    return nodes, i


def parse_script(source: str, statement: TheoremStatement | None = None) -> ProofScript:
    """Parse Lean source into a ProofScript over `normalize(source)`.

    The block tree reflects indentation nesting only; comments and string
    literals are masked first so keywords inside them carry no structure.
    An empty body becomes a lone `sorry`, so the text always carries a
    proof body and the tree holds it.
    """
    norm = normalize(source)
    masked = mask_regions(norm)
    want_name = statement.name if statement else None
    decl_start, by_end = _locate_statement(masked, want_name)
    if not norm[by_end:].strip():
        norm = norm[:by_end] + "\n  sorry\n"
        masked = masked[:by_end] + "\n  sorry\n"

    header = norm[:decl_start]
    statement_text = norm[decl_start:by_end]
    name = want_name
    if name is None:
        m = _NAME_RE.search(masked[decl_start:by_end])
        name = m.group(2) if m else "example"
    informal = statement.informal_prefix if statement else None
    stmt = TheoremStatement(name, header, statement_text, informal)

    by_line_no = norm.count("\n", 0, by_end) + 1
    # the body from the `by` line on, with everything through `by` blanked
    blank = " " * (by_end - (norm.rfind("\n", 0, by_end) + 1))
    texts = (blank + norm[by_end:]).split("\n")
    masks = (blank + masked[by_end:]).split("\n")
    records = [_Line(no, len(text) - len(text.lstrip()), mtext)
               for no, (text, mtext) in enumerate(zip(texts, masks), start=by_line_no)
               if text.strip()]

    children: list[ProofBlock] = []
    if records[0].no == by_line_no:
        rec = records.pop(0)
        children.append(ProofBlock(rec.no, rec.no, rec.indent, inline=True))
    pos = 0
    while pos < len(records):
        built, pos = _build_region(records, pos, -1)
        children.extend(built)

    root = ProofBlock(children[0].first, children[-1].last, -1, KIND_ANON, children)
    body_start = by_line_no if children[0].inline else by_line_no + 1
    return ProofScript(stmt, root, norm, masked, body_start)


def serialize(script: ProofScript) -> str:
    """The script's source text: the normalized source it was parsed from,
    with a lone `sorry` in an empty body."""
    return script.text


def count_sorries(script: ProofScript) -> int:
    """Number of sorry/admit tokens outside comments and strings."""
    return len(_SORRY_RE.findall(script.masked))


def replace_lines(text: str, edits) -> str:
    """Apply the `(first, last, new_lines)` edits to `text` at once and
    return the new text.  Each replaces lines `first..last` of `text` as
    given (1-based, inclusive) with `new_lines`; `last == first - 1`
    inserts before line `first`.  Edits may come in any order and apply
    bottom-up.  NodeNotFound when a range is out of range, or when two
    share a line or insert at the same place."""
    lines = text.split("\n")
    bound, below = len(lines) + 1, None  # the first line and range of the edit below
    for first, last, new_lines in sorted(edits, key=lambda e: e[:2], reverse=True):
        if not 1 <= first <= last + 1 <= bound or (first, last) == below:
            raise NodeNotFound(f"lines {first}..{last} out of range or overlapping")
        lines[first - 1 : last] = new_lines
        bound, below = first, (first, last)
    return "\n".join(lines)


def body_lines(script: ProofScript) -> list[str]:
    """The proof body as standalone lines, first tactic to last; an inline
    first tactic keeps its column, the `by` line's prefix blanked."""
    root = script.root
    return [script.line(no)[0] for no in range(root.first, root.last + 1)]


def statement_matches(script: ProofScript, statement: TheoremStatement) -> bool:
    """Whitespace-insensitive comparison of the parsed statement against the
    canonical one."""

    def collapse(s: str) -> str:
        return " ".join(s.split())

    return collapse(script.statement.statement_text) == collapse(statement.statement_text)
