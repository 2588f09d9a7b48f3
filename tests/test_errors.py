"""The toolkit's exception types."""

import inspect
import pickle

import pytest

from xvliw import errors

CLASSES = [cls for cls in vars(errors).values()
           if inspect.isclass(cls) and issubclass(cls, errors.XvliwError)]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip_keeps_type_and_message(cls):
    """A constructor that takes more than the message (``UnknownOpcode``'s
    index and opcode) once made unpickling raise ``TypeError``."""
    init = cls.__init__
    if hasattr(init, "__code__"):       # its own constructor: ints suit all
        exc = cls(*range(1, init.__code__.co_argcount))
    else:
        exc = cls("a message")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
