import inspect
import pathlib

import volcnn
from volcnn import errors


def test_every_error_class_is_raised():
    """Each VolcError subclass has a `raise Name(` somewhere in the package."""
    src = pathlib.Path(volcnn.__file__).parent
    text = "".join(p.read_text() for p in sorted(src.glob("*.py")))
    classes = [name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.VolcError) and cls is not errors.VolcError]
    assert classes
    assert [name for name in classes if f"raise {name}(" not in text] == []
