"""Byte identity of the command line: every run that make_golden.py
lists gives the exit code and stdout hash stored in golden_outputs.json.

A change that alters output on purpose rebuilds the file with
`python tests/make_golden.py` and explains every changed entry.
"""

import make_golden


def test_cli_outputs_match_the_golden_file():
    lines = make_golden.differences(make_golden.load())
    assert not lines, "\n".join(lines)
