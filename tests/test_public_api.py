import tailprompt


def test_every_exported_name_resolves():
    missing = [name for name in tailprompt.__all__ if not hasattr(tailprompt, name)]
    assert missing == []
    assert len(set(tailprompt.__all__)) == len(tailprompt.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from tailprompt import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(tailprompt.__all__)
    for name in tailprompt.__all__:
        assert namespace[name] is getattr(tailprompt, name)
