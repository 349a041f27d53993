"""Run the CLI in-process and read its output as a user would see it."""

import contextlib
import io
import json
import sys
import warnings

from beamblock.cli import run_cli


def _show(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename,
                                            lineno, line))


def run_captured(argv):
    """run_cli with stdout and stderr captured: (code, out, err). Every
    warning is written to the captured stderr, as a fresh process would
    print it, rather than to the test runner's warning log."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _show
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON: NaN and Infinity are refused."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def check_exit(code, err):
    """The CLI's failure contract: exit 0 with nothing on stderr, or exit 1
    or 2 with one ``error:`` line."""
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error:") and err.count("\n") == 1, err
    else:
        assert err == ""
