"""Print the lines and Python tokens of src/, as the ROADMAP counts them.

Tokens are counted by `tokenize`, with comments, line breaks, indents and
the end marker left out.  Run from the repo root: python tools/src_size.py
"""

import pathlib
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER, tokenize.ENCODING}
lines = tokens = 0
for path in sorted(pathlib.Path("src").rglob("*.py")):
    lines += len(path.read_text().splitlines())
    with path.open("rb") as f:
        tokens += sum(tok.type not in LAYOUT for tok in tokenize.tokenize(f.readline))
print(f"src/: {lines} lines, {tokens} tokens")
