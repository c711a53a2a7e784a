"""Lean proof scripts as editable trees of indentation-nested tactic blocks.

A script is parsed into a tree whose nesting mirrors indentation only; no
attempt is made to understand the full Lean grammar.  Serialization
reproduces the source text up to trailing-whitespace normalization, which
is what makes the edit operations safe to compose: every edit re-parses,
so tree invariants hold by construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import NodeNotFound, NoProofBody, UnterminatedComment

KIND_HAVE = "have-block"
KIND_CASE = "case-block"
KIND_ANON = "anonymous-block"
KIND_TACTIC = "tactic-line"

_DECL_RE = re.compile(r"^[ \t]*(theorem|lemma|example)\b", re.MULTILINE)
_NAME_RE = re.compile(r"(theorem|lemma)\s+([^\s:({\[⦃]+)")
_SORRY_RE = re.compile(r"\b(sorry|admit)\b")
_IMPORT_RE = re.compile(r"^\s*import\s")

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
class SourceSpan:
    """Closed region of source text; lines 1-based, columns 0-based."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def contains_line(self, line: int) -> bool:
        return self.start_line <= line <= self.end_line


@dataclass(frozen=True)
class TheoremStatement:
    name: str
    header: str
    statement_text: str
    informal_prefix: str | None = None


@dataclass
class ProofBlock:
    span: SourceSpan
    indent: int
    lines: list[str]
    children: list[ProofBlock] = field(default_factory=list)
    kind: str = KIND_TACTIC
    inline: bool = False  # first line shares the statement's `by` line

    def walk(self, path=()):  # yields (path, node) depth first
        yield path, self
        for i, child in enumerate(self.children):
            yield from child.walk(path + (i,))

    def line_count(self) -> int:
        return sum(1 for ln in self.lines if ln.strip()) + sum(
            c.line_count() for c in self.children
        )


@dataclass
class ProofScript:
    statement: TheoremStatement
    root: ProofBlock
    raw_text: str
    inline_tail: str | None = None  # verbatim remainder of the `by` line
    lead_blanks: int = 0  # blank lines between `by` and the first tactic

    @property
    def text(self) -> str:
        return serialize(self)

    @property
    def body_start_line(self) -> int:
        """1-based line of the first body line (the `by` line itself when the
        first tactic is inline)."""
        stmt_lines = (self.statement.header + self.statement.statement_text).count("\n")
        return stmt_lines + 1 if self.inline_tail is not None else stmt_lines + 2

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
            if path and node.span.contains_line(line):
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
    text: str  # verbatim, trailing whitespace stripped
    masked: str
    blanks_after: int = 0


def _kind_for(masked_line: str, opener: bool) -> str:
    if not opener:
        return KIND_TACTIC
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
        if not run:
            return
        first, last = run[0], run[-1]
        span = SourceSpan(first.no, first.indent, last.no, len(last.text))
        texts: list[str] = []
        for ln in run:
            texts.append(ln.text)
            texts.extend([""] * ln.blanks_after)
        nodes.append(ProofBlock(span, first.indent, texts, [], KIND_TACTIC))
        run.clear()

    while i < len(lines):
        ln = lines[i]
        if ln.indent <= stop_indent or ln.indent < region_indent:
            break
        opener = i + 1 < len(lines) and lines[i + 1].indent > ln.indent
        if opener:
            flush_run()
            children, i = _build_region(lines, i + 1, ln.indent)
            last = children[-1].span if children else None
            end_line = last.end_line if last else ln.no
            end_col = last.end_col if last else len(ln.text)
            span = SourceSpan(ln.no, ln.indent, end_line, end_col)
            header = [ln.text] + [""] * ln.blanks_after
            nodes.append(ProofBlock(span, ln.indent, header, children, _kind_for(ln.masked, True)))
        else:
            run.append(ln)
            i += 1
    flush_run()
    return nodes, i


def parse_script(source: str, statement: TheoremStatement | None = None) -> ProofScript:
    """Parse Lean source into a ProofScript.

    The block tree reflects indentation nesting only; comments and string
    literals are masked first so keywords inside them carry no structure.
    """
    norm = normalize(source)
    masked = mask_regions(norm)
    want_name = statement.name if statement else None
    decl_start, by_end = _locate_statement(masked, want_name)

    header = norm[:decl_start]
    statement_text = norm[decl_start:by_end]
    name = want_name
    if name is None:
        m = _NAME_RE.search(masked[decl_start:by_end])
        name = m.group(2) if m else "example"
    informal = statement.informal_prefix if statement else None
    stmt = TheoremStatement(name, header, statement_text, informal)

    body_lines = norm[by_end:].split("\n")
    masked_lines = masked[by_end:].split("\n")
    by_line_no = norm.count("\n", 0, by_end) + 1
    by_col = by_end - (norm.rfind("\n", 0, by_end) + 1)

    inline_tail = body_lines[0].rstrip() if body_lines[0].strip() else None

    records: list[_Line] = []
    lead_blanks = 0
    if inline_tail is not None:
        chunk = inline_tail.lstrip()
        col = by_col + (len(inline_tail) - len(chunk))
        records.append(_Line(by_line_no, col, chunk, masked_lines[0].strip()))
    for offset, (text, mtext) in enumerate(zip(body_lines[1:], masked_lines[1:])):
        line_no = by_line_no + 1 + offset
        text = text.rstrip()
        if not text:
            if records:
                records[-1].blanks_after += 1
            else:
                lead_blanks += 1
            continue
        indent = len(text) - len(text.lstrip())
        records.append(_Line(line_no, indent, text, mtext.rstrip()))
    if records:
        records[-1].blanks_after = 0

    children: list[ProofBlock] = []
    if inline_tail is not None:
        rec = records.pop(0)
        node = ProofBlock(
            SourceSpan(rec.no, rec.indent, rec.no, rec.indent + len(rec.text)),
            rec.indent,
            [rec.text] + [""] * rec.blanks_after,
            [],
            KIND_TACTIC,
            inline=True,
        )
        children.append(node)

    pos = 0
    while pos < len(records):
        built, pos = _build_region(records, pos, -1)
        children.extend(built)

    first_line = children[0].span.start_line if children else by_line_no
    last = children[-1].span if children else SourceSpan(by_line_no, by_col, by_line_no, by_col)
    root = ProofBlock(
        SourceSpan(first_line, 0, last.end_line, last.end_col),
        -1,
        [],
        children,
        KIND_ANON,
    )
    return ProofScript(stmt, root, source, inline_tail, lead_blanks)


def _emit(node: ProofBlock, out: list[str]) -> None:
    out.extend(node.lines)
    for child in node.children:
        _emit(child, out)


def serialize(script: ProofScript) -> str:
    """Reconstruct source text: header, statement, then the block tree.

    Deterministic; a script whose body is empty serializes with a lone
    `sorry` so the output always carries a proof body.
    """
    body_lines: list[str] = []
    children = list(script.root.children)
    stmt_line = script.statement.statement_text
    if children and children[0].inline:
        head = children[0]
        sep = max(head.indent - len(stmt_line.split("\n")[-1]), 1)
        stmt_line = stmt_line + " " * sep + head.lines[0]
        body_lines.extend(head.lines[1:])
        for sub in head.children:
            _emit(sub, body_lines)
        children = children[1:]
    else:
        body_lines.extend([""] * script.lead_blanks)
    for child in children:
        _emit(child, body_lines)
    if not any(ln.strip() for ln in body_lines) and stmt_line == script.statement.statement_text:
        non_inline = [c for c in script.root.children if not c.inline]
        indent = non_inline[0].indent if non_inline else 2
        body_lines = [" " * max(indent, 1) + "sorry"]
    text = script.statement.header + stmt_line
    if body_lines:
        text += "\n" + "\n".join(body_lines)
    return normalize(text)


def count_sorries(script: ProofScript) -> int:
    """Number of sorry/admit tokens outside comments and strings."""
    return len(_SORRY_RE.findall(mask_regions(serialize(script))))


def _reparse(script: ProofScript, new_text: str) -> ProofScript:
    return parse_script(new_text, script.statement)


def _script_lines(script: ProofScript) -> list[str]:
    return serialize(script).split("\n")


def remove_line(script: ProofScript, span: SourceSpan) -> ProofScript:
    """Delete the single line at span.start_line; returns a new script.

    When the line is the statement's own `by` line (inline first tactic),
    only the tactic tail after `by` is stripped.
    """
    lines = _script_lines(script)
    idx = span.start_line - 1
    if idx < 0 or idx >= len(lines):
        raise NodeNotFound(f"line {span.start_line} out of range")
    stmt_last = (script.statement.header + script.statement.statement_text).count("\n") + 1
    if span.start_line == stmt_last:
        lines[idx] = script.statement.statement_text.split("\n")[-1]
    else:
        del lines[idx]
    return _reparse(script, "\n".join(lines))


def remove_block(script: ProofScript, node_id: tuple[int, ...]) -> ProofScript:
    node = script.node(node_id)
    lines = _script_lines(script)
    del lines[node.span.start_line - 1 : node.span.end_line]
    return _reparse(script, "\n".join(lines))


_BY_TAIL_RE = re.compile(r"(:=\s*by)\b")


def replace_block_with_sorry(script: ProofScript, node_id: tuple[int, ...]) -> ProofScript:
    """Collapse a block to a one-line sorried form.

    A header carrying `:= by` keeps everything through `by` and gains a
    trailing ` sorry`; a `=>`-style header gains ` sorry`; anything else
    (including the root) becomes a bare `sorry` line.
    """
    if node_id == ():
        stmt = script.statement
        non_inline = [c for c in script.root.children if not c.inline]
        indent = non_inline[0].indent if non_inline else 2
        text = stmt.header + stmt.statement_text + "\n" + " " * max(indent, 1) + "sorry"
        return _reparse(script, text)

    node = script.node(node_id)
    lines = _script_lines(script)
    header = node.lines[0] if node.lines else ""
    masked_header = mask_regions(header) if header else ""
    m = _BY_TAIL_RE.search(masked_header)
    if m:
        new_line = header[: m.end(1)] + " sorry"
    elif masked_header.rstrip().endswith("=>"):
        new_line = header.rstrip() + " sorry"
    else:
        new_line = " " * node.indent + "sorry"
    lines[node.span.start_line - 1 : node.span.end_line] = [new_line]
    return _reparse(script, "\n".join(lines))


def replace_line_with_sorry(script: ProofScript, span: SourceSpan) -> ProofScript:
    """Rewrite the single line at span.start_line to a sorried form,
    keeping a `have`-style header (and so the hypothesis it binds) intact."""
    lines = _script_lines(script)
    idx = span.start_line - 1
    if idx < 0 or idx >= len(lines):
        raise NodeNotFound(f"line {span.start_line} out of range")
    line = lines[idx]
    masked = mask_regions(line)
    m = _BY_TAIL_RE.search(masked)
    if m:
        new_line = line[: m.end(1)] + " sorry"
    elif ":=" in masked:
        at = masked.index(":=")
        new_line = line[: at + 2] + " by sorry"
    else:
        indent = len(line) - len(line.lstrip())
        new_line = " " * indent + "sorry"
    lines[idx] = new_line
    return _reparse(script, "\n".join(lines))


def insert_sorry_after(
    script: ProofScript, span: SourceSpan, indent: int | None = None
) -> ProofScript:
    """Insert a `sorry` line directly after span.end_line."""
    lines = _script_lines(script)
    idx = span.end_line
    if idx < 0 or idx > len(lines):
        raise NodeNotFound(f"line {span.end_line} out of range")
    if indent is None:
        ref = lines[idx - 1] if 0 < idx <= len(lines) else ""
        indent = len(ref) - len(ref.lstrip()) if ref.strip() else 2
    lines.insert(idx, " " * indent + "sorry")
    return _reparse(script, "\n".join(lines))


def replace_span_text(script: ProofScript, span: SourceSpan, replacement: str) -> ProofScript:
    """Replace the text covered by a single-line span, used to swap a
    `sorry` token for a candidate tactic."""
    if span.start_line != span.end_line:
        raise NodeNotFound("only single-line spans can be replaced")
    lines = _script_lines(script)
    idx = span.start_line - 1
    if idx < 0 or idx >= len(lines):
        raise NodeNotFound(f"line {span.start_line} out of range")
    line = lines[idx]
    lines[idx] = line[: span.start_col] + replacement + line[span.end_col :]
    return _reparse(script, "\n".join(lines))


def body_lines(script: ProofScript) -> list[str]:
    """The proof body as standalone lines; an inline first tactic gets its
    own line at its original column."""
    out: list[str] = []
    for child in script.root.children:
        if child.inline:
            out.append(" " * child.indent + child.lines[0])
            out.extend(child.lines[1:])
            for sub in child.children:
                _emit(sub, out)
        else:
            _emit(child, out)
    return out


def statement_matches(script: ProofScript, statement: TheoremStatement) -> bool:
    """Whitespace-insensitive comparison of the parsed statement against the
    canonical one."""

    def collapse(s: str) -> str:
        return " ".join(s.split())

    return collapse(script.statement.statement_text) == collapse(statement.statement_text)


def compile_lines(script: ProofScript, preamble: str | None = None) -> tuple[str, list[int | None]]:
    """Code to submit to the compiler plus a compile-line -> script-line map.

    Import lines are dropped (the session's cached environment already holds
    them); an optional preamble is prepended.  Entries in the returned map
    are 1-based script line numbers, or None for preamble lines.
    """
    script_lines = _script_lines(script)
    masked = mask_regions("\n".join(script_lines)).split("\n")
    header_line_count = script.statement.header.count("\n")
    out: list[str] = []
    mapping: list[int | None] = []
    if preamble:
        for ln in preamble.rstrip("\n").split("\n"):
            out.append(ln)
            mapping.append(None)
    for i, line in enumerate(script_lines):
        if i < header_line_count and _IMPORT_RE.match(masked[i]):
            continue
        out.append(line)
        mapping.append(i + 1)
    return "\n".join(out).rstrip("\n") + "\n", mapping
