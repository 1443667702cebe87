"""Output checks of perfbench. They know only what the workload generator
planted or what the programs are documented to contain, and read the
engine's answers as plain data: nothing here calls into hotg.
"""

import re

BUG_LINE = re.compile(r'^BUG \[([^\]]+)\] "(.*)" input \(([^)]*)\)')


def bugs_from_report(report):
    """The bug list of a rendered search report (hotg-run's text)."""
    bugs = []
    for line in report.splitlines():
        m = BUG_LINE.match(line)
        if m:
            cells = [int(c) for c in m.group(3).split(",") if c.strip()]
            bugs.append({"status": m.group(1), "message": m.group(2),
                         "input": cells})
    return bugs


def spelled(cells, chunk):
    """The 4-character word of input chunk `chunk`, or None when a cell is
    not a printable character."""
    word = cells[4 * chunk:4 * chunk + 4]
    if len(word) != 4 or not all(32 <= c < 127 for c in word):
        return None
    return "".join(chr(c) for c in word)


def check_lexer(bugs, expect):
    """Every planted production is found, with an input whose chunks spell
    the production's keywords; nothing else is reported."""
    problems = []
    by_message = {b["message"]: b for b in bugs}
    planted = {p["message"] for p in expect["productions"]}
    for p in expect["productions"]:
        bug = by_message.get(p["message"])
        if bug is None:
            problems.append("missed %r" % p["message"])
            continue
        if bug["status"] != "error":
            problems.append("%r reported as %s" % (p["message"],
                                                   bug["status"]))
        words = [spelled(bug["input"], c) for c in p["chunks"]]
        if words != p["words"]:
            problems.append("%r found with input spelling %r" %
                            (p["message"], words))
    for b in bugs:
        if b["message"] not in planted:
            problems.append("unplanted bug %r" % b["message"])
    return problems


def check_known_bugs(bugs, expect):
    """Only the program's documented bugs are reported, and the required
    ones are all present."""
    messages = {b["message"] for b in bugs}
    problems = ["unknown bug %r" % m for m in sorted(messages)
                if m not in expect["known"]]
    problems += ["missed %r" % m for m in expect["required"]
                 if m not in messages]
    return problems


def check_bugs(bugs, expect):
    if expect["kind"] == "lexer":
        return check_lexer(bugs, expect)
    return check_known_bugs(bugs, expect)


def known_bug_count(expect):
    """The base of bugs_found_frac for one job."""
    if expect["kind"] == "lexer":
        return len(expect["productions"])
    return len(expect["known"])


def found_bug_count(bugs, expect):
    if expect["kind"] == "lexer":
        planted = {p["message"] for p in expect["productions"]}
    else:
        planted = set(expect["known"])
    return len({b["message"] for b in bugs} & planted)
