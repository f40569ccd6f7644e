"""Fixture: every import form of an R001/R002 source, in every location.

The path (``.../sources/sim/forms.py``) places this module in a
replay-critical layer.  Each callee is reached through one import form
(``import x``, ``import x as y``, ``from x import y [as z]``, the dotted
``import os.path``, the ``datetime`` module and the ``datetime`` class),
and the reads sit inside a function, at module level, in a class body,
in a nested class's method and in a def under ``if``: the rules must
report every one of them, wherever the call graph attributes it.
"""

import datetime as dt
import os.path
import random
import random as rnd
import time
import time as clock
from datetime import date
from datetime import datetime as DT
from os import environ
from os import getenv as env_get
from random import Random as Rng

__all__ = ["draw_all", "read_all", "BOOTED_AT", "Config", "Outer"]


def draw_all(xs):
    from random import uniform

    rnd.shuffle(xs)
    return [
        random.random(),
        uniform(0.0, 1.0),
        random.Random(),
        Rng(),
        Rng(7),
        random.SystemRandom(),
    ]


def read_all():
    from time import time_ns as stamp_ns

    started = time.perf_counter()
    return (
        time.time(),
        clock.time_ns(),
        stamp_ns(),
        os.environ["A"],
        environ.get("B"),
        os.getenv("C"),
        env_get("D"),
        dt.datetime.utcnow(),
        dt.date.today(),
        DT.now(),
        date.today(),
        time.perf_counter() - started,
    )


BOOTED_AT = time.time()


class Config:
    horizon = float(environ.get("HORIZON", "100"))


class Outer:
    class Inner:
        def jitter(self):
            return rnd.uniform(0.0, 1.0), DT.utcnow()


if hasattr(time, "time_ns"):

    def boot_ns():
        return clock.time_ns()
