"""The table of pinned output digests, and a checker that runs its rows.

``pinned_outputs.txt`` beside this file holds one row per output, in
``sha256sum``'s layout: ``<sha256>  <argv without --out>``.  The tests read
it with :func:`load`.  Run as a script,

    python tests/pinned.py COMMAND...

runs ``COMMAND <argv> --out <file>`` for every row, prints each row whose
output differs or whose exit code is not 0, and exits 1 if there is one;
``python tests/pinned.py lane-emden`` checks an installed copy.  Standard
library only: the command under test runs in a subprocess, so this module
never imports ``lane_emden``.
"""

import hashlib
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).with_name("pinned_outputs.txt")

# 64 lowercase hex digits, two spaces, and arguments one space apart
_ROW = re.compile(r"([0-9a-f]{64})  (\S+(?: \S+)*)")


def load(path=TABLE):
    """The rows of the table at ``path``, as ``{argv: digest}`` in file
    order.  Blank lines and ``#`` lines are skipped.  Raises ``ValueError``
    on a malformed row, a repeated argv, or a table with no rows."""
    rows = {}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            continue
        match = _ROW.fullmatch(line)
        if match is None:
            raise ValueError(f"{path}:{number}: not '<sha256>  <argv>': "
                             f"{line!r}")
        digest, argv = match.groups()
        if argv in rows:
            raise ValueError(f"{path}:{number}: repeated argv {argv!r}")
        rows[argv] = digest
    if not rows:
        raise ValueError(f"{path}: no rows")
    return rows


def _file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def check(rows, command, env=None):
    """Run ``command + argv.split() + ["--out", file]`` for each of
    ``rows`` (``{argv: digest}``), with environment ``env`` (``None``
    inherits this one).  Returns ``{argv: problem}`` for the rows whose
    exit code is not 0, that write no output, or whose output's digest
    differs."""
    failed = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for argv, digest in rows.items():
            out.unlink(missing_ok=True)
            proc = subprocess.run(
                [*command, *argv.split(), "--out", str(out)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                env=env, text=True, timeout=600,
            )
            if proc.returncode != 0:
                failed[argv] = f"exit {proc.returncode}: {proc.stderr.strip()}"
            elif not out.exists():
                failed[argv] = "no output file"
            elif (got := _file_sha256(out)) != digest:
                failed[argv] = f"sha256 {got}"
    return failed


def main(command):
    if not command:
        print("usage: python tests/pinned.py COMMAND...", file=sys.stderr)
        return 2
    rows = load()
    failed = check(rows, command)
    for argv, problem in failed.items():
        print(f"{rows[argv]}  {argv}: {problem}")
    print(f"{len(rows) - len(failed)} of {len(rows)} pinned outputs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
