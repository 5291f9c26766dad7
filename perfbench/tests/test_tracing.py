"""Self-time arithmetic and the wrapper installer."""

import itertools
import sys
import types
from functools import cached_property

import pytest

from perfbench import layers
from perfbench.tracing import NO_OP, Installer, Target, Tracer, by_op, self_times


def _scripted_tracer(events):
    """A tracer fed by a script of ("open", name, t) / ("close", t) events."""
    clock = iter(t for event in events for t in event[-1:])
    tracer = Tracer(clock=lambda: next(clock))
    stack = []
    for event in events:
        if event[0] == "open":
            stack.append(tracer.open(tracer.name_id(event[1])))
        else:
            tracer.close(stack.pop())
    return tracer


def test_self_time_of_a_synthetic_nested_trace():
    tracer = _scripted_tracer(
        [
            ("open", "op", 0),
            ("open", "x.a", 10),
            ("open", "x.b", 20),
            ("close", 30),
            ("open", "x.b", 40),
            ("close", 50),
            ("close", 60),
            ("open", "x.a", 70),
            ("open", "x.a", 75),  # recursion: same name as its parent
            ("close", 80),
            ("close", 90),
            ("open", "xy", 92),
            ("close", 95),
            ("close", 100),
        ]
    )
    assert self_times(tracer) == [100 - 50 - 20 - 3, 50 - 20, 10, 10, 20 - 5, 5, 3]
    spans = by_op(tracer)[tracer.op]
    assert spans.self_ns == {"op": 27, "x.a": 30 + 15 + 5, "x.b": 20, "xy": 3}
    assert spans.calls == {"op": 1, "x.a": 2, "x.b": 2, "xy": 1}
    assert spans.self_s("x") == pytest.approx(70e-9)  # "xy" is not under "x"
    assert spans.self_s("x.b") == pytest.approx(20e-9)


def test_spans_are_grouped_by_op():
    tracer = Tracer(clock=itertools.count().__next__)
    for op in (NO_OP, 3, 3):
        tracer.op = op
        tracer.close(tracer.open(tracer.name_id("a")))
    grouped = by_op(tracer)
    assert sorted(grouped) == [NO_OP, 3]
    assert grouped[3].calls == {"a": 2}


@pytest.fixture
def fake_package():
    """``fakepkg.core`` defines things; ``fakepkg.user`` imports them."""
    core = types.ModuleType("fakepkg.core")

    def work(x):
        return x + 1

    work.__module__ = "fakepkg.core"
    core.work = work

    class Shape:
        @cached_property
        def area(self):
            return 6

        def grow(self):
            return "grow"

    class Base:
        def run(self):
            return "base"

    class Sub(Base):
        def run(self):
            return "sub:" + super().run()

    core.Shape, core.Base, core.Sub = Shape, Base, Sub
    user = types.ModuleType("fakepkg.user")
    user.work = work
    user.alias = work
    package = types.ModuleType("fakepkg")
    package.work = work
    modules = {"fakepkg": package, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(modules)
    yield modules
    for name in modules:
        sys.modules.pop(name, None)
    sys.modules.pop("fakepkg.late", None)


def test_installer_patches_and_restores_every_import_site(fake_package):
    core, user = fake_package["fakepkg.core"], fake_package["fakepkg.user"]
    work, area, grow = core.work, core.Shape.__dict__["area"], core.Shape.grow
    base_run, sub_run = core.Base.run, core.Sub.run
    tracer = Tracer()
    installer = Installer(
        tracer,
        [
            Target("fake.work", "fakepkg.core:work"),
            Target("fake.area", "fakepkg.core:Shape.area"),
            Target("fake.grow", "fakepkg.core:Shape.grow"),
            Target("fake.run", "fakepkg.core:Base.*run"),
        ],
        packages=("fakepkg",),
    )
    installer.install()
    assert installer.wrapped_sites() == [
        "fakepkg.core.work",
        "fakepkg.user.alias",
        "fakepkg.user.work",
        "fakepkg.work",
    ]
    assert user.work is not work and user.alias is user.work is core.work
    late = types.ModuleType("fakepkg.late")
    late.work = core.work  # a site that imports after installation
    sys.modules["fakepkg.late"] = late

    assert user.work(1) == 2 and late.work(1) == 2
    shape = core.Shape()
    assert shape.area == 6 and shape.area == 6  # computed once, then cached
    assert shape.grow() == "grow"
    assert core.Sub().run() == "sub:base"
    calls = by_op(tracer)[tracer.op].calls
    # Sub.run calling the wrapped Base.run through super() is one call.
    assert calls == {"fake.work": 2, "fake.area": 1, "fake.grow": 1, "fake.run": 1}

    installer.restore()
    assert installer.wrapped_sites() == []
    for module in (*fake_package.values(), late):
        for name in ("work", "alias"):
            if hasattr(module, name):
                assert getattr(module, name) is work
    assert core.Shape.__dict__["area"] is area and core.Shape.grow is grow
    assert core.Base.run is base_run and core.Sub.run is sub_run
    before = len(tracer)
    user.work(1), core.Shape().area, core.Sub().run()
    assert len(tracer) == before


def _bindings(packages=("repro", "perfbench")):
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name.split(".")[0] in packages
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_layer_targets_reach_every_import_site_of_the_program():
    import perfbench.workloads  # noqa: F401  (the benchmark's own import site)
    from repro.core.dag import DAG

    targets = layers.targets()
    functions = {
        id(getattr(sys.modules[module], qualname))
        for module, qualname in (t.where.split(":") for t in targets)
        if "." not in qualname
    }
    height = DAG.__dict__["height"]
    before = _bindings()
    sites = {key for key, value in before.items() if id(value) in functions}
    assert ("repro.schedulers.lpf", "simulate") in sites
    assert ("repro.core", "simulate") in sites
    assert ("perfbench.workloads", "run_trials") in sites

    installer = Installer(Tracer(), targets, packages=("repro", "perfbench"))
    installer.install()
    try:
        during = _bindings()
        assert all(during[key] is not before[key] for key in sites)
        assert sorted(f"{m}.{a}" for m, a in sites) == installer.wrapped_sites()
        assert DAG.__dict__["height"] is not height
    finally:
        installer.restore()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    assert DAG.__dict__["height"] is height
