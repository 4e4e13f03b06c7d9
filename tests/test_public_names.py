from public_names import ALLOWLIST, ROOT, problems


def test_every_public_name_has_a_reader_or_a_listed_reason():
    assert problems(ROOT, ALLOWLIST.read_text()) == []


def test_the_check_flags_each_kind_of_problem(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "m.py").write_text(
        "LIMIT = 3\n"
        "def used():\n    return helper() + LIMIT\n"
        "def helper():\n    return 1\n"
        "def unread():\n    pass\n"
        "class Kept:\n    pass\n"
        "def _private():\n    pass\n")
    (tmp_path / "perfbench" / "run.py").write_text(
        "from m import used\ntargets = ['m.traced']\n")
    (tmp_path / "src" / "n.py").write_text("def traced():\n    pass\n")
    allow = ("# kept for a reason\nsrc/m.py: Kept\nsrc/m.py: helper\n\n"
             "src/m.py: gone\n")
    assert problems(tmp_path, allow) == [
        "listed without a reason: src/m.py: gone",
        "no reader and not listed: src/m.py: unread",
        "listed but read: src/m.py: helper",
        "listed but not defined: src/m.py: gone",
    ]
    assert problems(tmp_path, "# reason\nsrc/m.py: Kept\nsrc/m.py: unread"
                    ) == []
