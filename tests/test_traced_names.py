"""The benchmark's traced mode wraps package functions by name.

``perfbench/spans.py`` lists them in ``TARGETS``; its ``Tracer.install``
fails on a name that a refactor dropped.  This test reads that list and
resolves every entry the way ``install`` does, so a dropped name fails
here too.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    targets = load_targets()
    assert targets
    missing = []
    for module, attr, _ in targets:
        owner = importlib.import_module(module)
        if "." in attr:
            # a method is looked up in its own class, not inherited
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append("%s.%s" % (module, attr))
    assert missing == []
