"""In-process runs of the command line for the tests: `run(*args)` calls
`topoinv.cli.main` with stdout and stderr captured."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

from topoinv.cli import main


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None  # SystemExit with a nonzero code, or what escaped main

    @property
    def output(self) -> str:
        """stdout followed by stderr."""
        return self.stdout + self.stderr


def run(*args: str) -> Result:
    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code or 0
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
    return Result(code, out.getvalue(), err.getvalue(), exception)
