"""The code-line counter that CHANGES.md quotes (tests/code_lines.py)."""

from code_lines import code_lines

# One line of each kind; the comment after each counted line is its number.
SNIPPET = '''"""Module docstring,

over three lines."""
# a comment line

import os  # 1: code with a trailing comment


class Box:  # 2
    """Class docstring."""

    def size(self):  # 3
        """Function docstring,
        # not a comment
        """
        text = """a string that is no docstring  # 4
# 5: so this line is code

"""  # 6
        """a second string is no docstring"""  # 7
        return len(text)  # 8
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    assert code_lines(SNIPPET) == 8
