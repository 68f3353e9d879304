"""The ``Record`` base against a frozen-dataclass twin of every record class.

Each twin is built by ``dataclasses.make_dataclass(..., frozen=True)`` from the
record class's own annotations, class values and ``__post_init__``, so the
record mechanism is checked against the standard library's, not against
itself.
"""
import copy
import dataclasses
import pickle

import pytest

import ionqrm.analysis  # noqa: F401 - defines VerificationReport
import ionqrm.config  # noqa: F401 - defines the *Spec classes, RunConfig and _Key
import ionqrm.dynamics  # noqa: F401 - defines EvolutionResult and BlockEigensystem
from ionqrm.analysis import VerificationReport
from ionqrm.params import IonParams, Record, TruncationSpec


def _record_classes():
    found, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return {cls.__name__: cls for cls in found}


# for each record class, two full sets of field values (the first the smallest)
_SAMPLES = {
    "IonParams": [(0.3, 0.1), (0.3, 0.1, 1.2, 0.7, -0.2)],
    "DerivedCouplings": [(0.01, 0.02, -0.003), (0.2, 0.3, 0.4)],
    "RegimeThresholds": [(), (5.0, 0.2, 0.05, 0.2)],
    "TruncationSpec": [(8,), (8, 2)],
    "Tolerances": [(), (1e-11, 1e-8, 1e-7, 2.5)],
    "BuildSpec": [(), ("jc", False)],
    "EvolveSpec": [(), ("qrm", "coherent", "g", 0, 0.5 - 0.25j, 4.5, 11, (0.0, 0.5, 2.0))],
    "ScanSpec": [(), ("truncation", (0.1, 0.05), (8, 16), 4, "jc")],
    "VerifySpec": [(), ("jc-rabi", 2)],
    "RunConfig": [("regime", IonParams(0.5, 0.02), TruncationSpec(8)),
                  ("build", IonParams(0.5, 0.02), TruncationSpec(8, 2), 7, "out.json", "csv")],
    "EvolutionResult": [((0.0, 1.0), (1.0, 0.5), (0.0, 0.1), (0.0, 1e-16)),
                        ((0.0,), (1.0,), (0.0,), (0.0,), ((1.0, 0.0),))],
    "BlockEigensystem": [(None, ()), ((1, -1j), (((0, 1), (0.5, 1.5), None),))],
    "VerificationReport": [("stub", 0.0),
                           ("x", 1e-9, (("a", "<=", 2.0),), {"a": 1.0}, IonParams(0.3, 0.1),
                            TruncationSpec(8, 2), 7, "note")],
    "_Key": [(None, "command", str), ("params", "nu", float, ("a", "b"), ("kind", (None,)))],
}


def _twin(cls):
    own = vars(cls)
    specs = []
    for name, annotation in own["__annotations__"].items():
        if name not in own:
            specs.append((name, annotation))
        elif isinstance(own[name], (dict, list, set)):
            specs.append((name, annotation, dataclasses.field(default_factory=own[name].copy)))
        else:
            specs.append((name, annotation, dataclasses.field(default=own[name])))
    namespace = {"__post_init__": own["__post_init__"]} if "__post_init__" in own else {}
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, namespace=namespace)


def _outcome(fn):
    """What calling ``fn`` does: its value's repr, or the exception class it raises."""
    try:
        return "returns", repr(fn())
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return "raises", type(exc)


def test_every_record_class_has_samples():
    assert sorted(_record_classes()) == sorted(_SAMPLES)
    assert len(_SAMPLES) == 14  # 13 parameter, config and result classes, plus config._Key


@pytest.mark.parametrize("name", sorted(_SAMPLES))
def test_record_behaves_like_its_frozen_dataclass_twin(name):
    cls = _record_classes()[name]
    twin = _twin(cls)
    fields = [f.name for f in dataclasses.fields(twin)]
    assert list(cls._fields) == fields
    for values in _SAMPLES[name]:
        rec, ref = cls(*values), twin(*values)
        by_keyword = dict(zip(fields, values))
        assert repr(rec) == repr(ref)
        assert repr(cls(**by_keyword)) == repr(ref)
        assert rec == cls(**by_keyword) and not rec != cls(**by_keyword)
        assert (rec == ref) is False  # another class compares unequal, as for the twin
        assert _outcome(lambda: hash(rec)) == _outcome(lambda: hash(ref))
        assert repr(rec.asdict()) == repr(dataclasses.asdict(ref))
        assert list(rec.asdict()) == fields
        assert pickle.loads(pickle.dumps(rec)) == rec
        assert copy.copy(rec) == rec

        # the same TypeError for a missing, unknown or duplicate field
        assert _outcome(lambda: cls(*values, bogus=1)) == (
            _outcome(lambda: twin(*values, bogus=1))) == ("raises", TypeError)
        assert _outcome(lambda: cls(*values, *range(len(fields) + 1))) == ("raises", TypeError)
        assert _outcome(lambda: twin(*values, *range(len(fields) + 1))) == ("raises", TypeError)
        if values:
            duplicate = {fields[0]: values[0]}
            assert _outcome(lambda: cls(*values, **duplicate)) == (
                _outcome(lambda: twin(*values, **duplicate))) == ("raises", TypeError)
        missing = dataclasses.MISSING
        required = [f.name for f in dataclasses.fields(twin)
                    if f.default is missing and f.default_factory is missing]
        if required:
            assert _outcome(lambda: cls(*values[:len(required) - 1])) == (
                _outcome(lambda: twin(*values[:len(required) - 1]))) == ("raises", TypeError)
            partial = {k: v for k, v in by_keyword.items() if k != required[-1]}
            assert _outcome(lambda: cls(**partial)) == ("raises", TypeError)

        # frozen: no field, or any other attribute, can be set or deleted
        for attr in (fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, attr, 1)
            with pytest.raises(AttributeError):
                setattr(ref, attr, 1)
        with pytest.raises(AttributeError):
            delattr(rec, fields[0])
        assert repr(rec) == repr(ref)

    # replace: a new instance with the changes, validated again
    first, last = _SAMPLES[name]
    changes = dict(zip(fields, last))
    replaced = dataclasses.replace(twin(*first), **changes)
    assert repr(cls(*first).replace(**changes)) == repr(replaced)
    assert _outcome(lambda: cls(*first).replace(bogus=1)) == ("raises", TypeError)


@pytest.mark.parametrize("record, change", [
    (TruncationSpec(8), {"guard": 8}),
    (TruncationSpec(8, 2), {"n_max": 0}),
    (IonParams(0.3, 0.1), {"eta": -0.1}),
    (IonParams(0.3, 0.1), {"nu": float("inf")}),
])
def test_replace_validates_like_construction(record, change):
    with pytest.raises(ValueError):
        record.replace(**change)
    with pytest.raises(ValueError):
        dataclasses.replace(_twin(type(record))(*record.asdict().values()), **change)


def test_verification_reports_share_no_metrics_default():
    a = VerificationReport(name="a", tolerance=0.0)
    b = VerificationReport(name="b", tolerance=0.0)
    assert a.metrics == {} and a.metrics is not b.metrics
    a.metrics["x"] = 1.0
    assert b.metrics == {}
    assert VerificationReport(name="c", tolerance=0.0).metrics == {}
    given = {"y": 2.0}
    assert VerificationReport("d", 0.0, (), given).metrics is given
