"""Call-graph fixture: a local named like a module is a value, not the
module; an imported module name is the module."""
# contracts: module=repro/fixture/callgraph_caller.py

from repro.fixture import fabric


class Thing:
    @classmethod
    def make(cls):
        return cls()

    def run(self, horizon):
        return horizon


def drive_local(horizon):
    fabric = Thing.make()
    return fabric.run(horizon)


def drive_module(horizon):
    return fabric.run(horizon)
