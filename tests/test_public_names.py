from names import ALLOWLIST, ROOT, private, problems


def test_every_public_name_has_a_reader_or_a_listed_reason():
    assert [p for p in problems(ROOT, ALLOWLIST.read_text())
            if not private(p)] == []


def test_the_check_flags_each_kind_of_problem(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "m.py").write_text(
        "LIMIT = 3\n"
        "def used():\n    return helper() + LIMIT\n"
        "def helper():\n    return 1\n"
        "def unread():\n    pass\n"
        "def rec(n):\n    return rec(n - 1) if n else 0\n"
        "UNREAD: int = 3\n"
        "class Kept:\n    pass\n")
    (tmp_path / "src" / "n.py").write_text("def traced():\n    pass\n")
    (tmp_path / "perfbench" / "run.py").write_text(
        "from m import used\ntargets = ['n.traced']\n")
    allow = ("# kept for a reason\nsrc/m.py: Kept\nsrc/m.py: helper\n\n"
             "src/m.py: gone\n")
    # a recursive call is no reader, and neither is the annotated
    # assignment that binds a constant
    found = problems(tmp_path, allow)
    assert not any(map(private, found))
    assert found == [
        "listed without a reason: src/m.py: gone",
        "no reader and not listed: src/m.py: UNREAD",
        "no reader and not listed: src/m.py: rec",
        "no reader and not listed: src/m.py: unread",
        "listed but read: src/m.py: helper",
        "listed but not defined: src/m.py: gone",
    ]
    assert problems(tmp_path, (
        "# reason\nsrc/m.py: Kept\nsrc/m.py: unread\nsrc/m.py: UNREAD\n"
        "src/m.py: rec")) == []
