"""The benchmark's span tracer names functions of the package; each must exist.

``bench/spans.py`` looks every ``TRACED`` entry up with ``getattr`` (and a
class member in the class's own ``__dict__``), so a rename or deletion in the
package would only show as a crash of ``bench/run.py --trace 1``.  This test
loads the list from the file, without importing the benchmark as a package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for mod_name, path, *_ in traced:
        owner = importlib.import_module(f"tandemreco.{mod_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(owner, cls_name)), f"{mod_name}.{path}"
        else:
            assert callable(getattr(owner, path, None)), f"{mod_name}.{path}"
