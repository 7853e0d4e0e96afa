"""Print the lines and Python tokens of src/, as the ROADMAP counts them.

Tokens are counted by `tokenize`, with comments, line breaks, indents and
the end marker left out.  src/ is found next to this script's directory, so
it runs from anywhere: python tools/src_size.py.  It exits 1 if src/ has no
Python file.
"""

import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER, tokenize.ENCODING}
paths = sorted((ROOT / "src").rglob("*.py"))
if not paths:
    sys.exit(f"no Python file under {ROOT / 'src'}")
lines = tokens = 0
for path in paths:
    lines += len(path.read_text().splitlines())
    with path.open("rb") as f:
        tokens += sum(tok.type not in LAYOUT for tok in tokenize.tokenize(f.readline))
print(f"src/: {lines} lines, {tokens} tokens")
