"""The flow's value pins and N-chiplet end-to-end runs.

The paper's topology and every N-chiplet topology run through one stage
pipeline.  Refactors must not move a single output value, so the
digests of ``_values``, a projection of every output of a result, are
pinned for a fixed set of points: the six designs with the paper's
topology, glass 2.5D and glass 3D with eyes and thermal on, and five
N-chiplet points.  The projection compares floats by their bits and
arrays by their bytes, but leaves out how a result is stored, so a
change to what a netlist pickles keeps the pins.  The digests equal
those of the flow before the netlists were pickled as arrays, and they
are stable across processes and hash seeds (the eye points also need
a fixed BLAS thread count).

Any other topology runs the full pipeline end to end: N-way
partition, per-part implementation, arrangement-aware placement,
interposer routing/PDN/SI/thermal, and a complete Table IV row.
"""

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import struct
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.arch.netlist import Netlist
from repro.core.flow import run_design, run_flow_task
from repro.core.request import EvalRequest, canonical_dumps
from repro.tech.interposer import spec_names
from repro.tech.stdcell import CellLibrary
from tests.oracles.placement import overlaps

SCALE = 0.02
ROOT = Path(__file__).resolve().parents[2]

#: sha256 of ``_values(result)`` per pinned point, keyed
#: ``(design, scale, with_eyes, with_thermal, num_chiplets,
#: arrangement)``; seed 7 throughout, eye points with one BLAS thread.
VALUE_DIGESTS = {
    ("glass_25d", 0.012, False, False, 2, "grid"):
        "c1eade0109ef5e242471988c90b9dd5993e0b2f4ce2cdf0763b06fbf6b5aeded",
    ("glass_3d", 0.012, False, False, 2, "grid"):
        "ce066ad34059765c509cb0a822fadb874aaa79fb8948a8a89164de4339029c8b",
    ("silicon_25d", 0.012, False, False, 2, "grid"):
        "29c0ac2f1a018a8d5245828c7680440d60ee137cb80e5f35e2c0b83558899302",
    ("silicon_3d", 0.012, False, False, 2, "grid"):
        "4ad750442c707a2b687e43365449b1192666eb77e540fb74cd8c66df662c9004",
    ("shinko", 0.012, False, False, 2, "grid"):
        "9110a7ab1bb63c1e97e209735b1354939f46ba777e8067c5d0fdb3b859907766",
    ("apx", 0.012, False, False, 2, "grid"):
        "373988cba682ad59289721cba8166edc4de1acb7f58f6253a2e55d5cea172da6",
    ("glass_25d", 0.03, True, True, 2, "grid"):
        "57ff460afce83fbff6d21dad7ea83b2337b70baa80a9ffff59161be56ac5a022",
    ("glass_3d", 0.03, True, True, 2, "grid"):
        "2d0000748014729ff7a8e243e0f0d9790001ed923eb0ce62f598882645bc5eb8",
    ("glass_25d", SCALE, False, True, 9, "hexagonal"):
        "8213768a53ccb287e2590e643da7a7a71667088e1fd5758093898e891a33d2f0",
    ("glass_3d", SCALE, False, False, 4, "stacked"):
        "c3f8e70185822b46fea06fdd2df4dbb02b9cad69be80f106b56c8a4134898b77",
    ("shinko", SCALE, False, False, 3, "row"):
        "c275e92783b22c2201e22b5cd018473747b7245a27019dbabc0ddc58e103c105",
    ("silicon_3d", SCALE, False, False, 4, "grid"):
        "2c14f449bc25c3439c08677cafb610fd5397e3dbd1b0672c2815fb1426199716",
    ("glass_25d", SCALE, False, False, 2, "row"):
        "bd20436afd14e7507a1bd8b4218bc9c86062d8d0bf46440a9c733928c0cec059",
}


def _stripped(result):
    """``result`` without its run-to-run observability (wall times,
    solver counters, router timing stats): everything else must be a
    pure function of the design point."""
    route = result.route
    if route is not None and route.stats is not None:
        route = dataclasses.replace(route, stats=None)
    return dataclasses.replace(
        result, route=route, stage_times=None, solver_stats=None,
        stage_solver_stats=None)


def _canonical(result):
    """The stored bytes of ``result``'s design point."""
    return canonical_dumps(_stripped(result))


def _qualname(kind: type) -> str:
    return f"{kind.__module__}.{kind.__qualname__}"


class _ValueWriter:
    """Writes a value graph as lines of text (see :func:`_values`).

    Each value writes at least one line, and a container's first line
    counts its items, so the text decodes one way only.  Objects with
    identity (lists, dicts, sets, arrays, records) are numbered when
    first seen and written as ``ref <number>`` after that, so sharing
    is part of the value as pickling keeps it; ``seen`` holds each of
    them, because an id alone is reused once its object is freed.
    """

    def __init__(self):
        self.lines: List[str] = []
        self.seen: Dict[int, Tuple[int, object]] = {}

    def write(self, obj) -> None:
        out = self.lines.append
        kind = type(obj)
        if obj is None or kind in (bool, int, str):
            out(repr(obj))
        elif kind is float:
            out(f"float {struct.pack('<d', obj).hex()}")
        elif isinstance(obj, np.generic) and not obj.dtype.hasobject:
            out(f"{_qualname(kind)} {obj.dtype.str} {obj.tobytes().hex()}")
        elif isinstance(obj, enum.Enum):
            out(f"{_qualname(kind)}.{obj.name}")
        elif kind is tuple:
            out(f"tuple {len(obj)}")
            for item in obj:
                self.write(item)
        elif isinstance(obj, tuple) and hasattr(kind, "_fields"):
            out(f"{_qualname(kind)} {len(obj)}")
            for name, item in zip(kind._fields, obj):
                out(name)
                self.write(item)
        elif id(obj) in self.seen:
            out(f"ref {self.seen[id(obj)][0]}")
        else:
            self.seen[id(obj)] = (len(self.seen), obj)
            self._write_object(obj)

    def _write_object(self, obj) -> None:
        out = self.lines.append
        kind = type(obj)
        if kind is list:
            out(f"list {len(obj)}")
            for item in obj:
                self.write(item)
        elif kind is dict:
            out(f"dict {len(obj)}")
            for key, item in obj.items():
                self.write(key)
                self.write(item)
        elif kind is set:
            # Each item on its own writer, sorted by its text.
            texts = []
            for item in obj:
                writer = _ValueWriter()
                writer.write(item)
                texts.append("\n".join(writer.lines))
            out(f"{_qualname(kind)} {len(texts)}")
            self.lines.extend(sorted(texts))
        elif kind is np.ndarray and not obj.dtype.hasobject:
            data = hashlib.sha256(obj.tobytes()).hexdigest()
            out(f"ndarray {obj.dtype.str} {obj.shape} {data}")
        elif kind is Netlist:
            # The records in order; the pin index, the cell caches and
            # the array view are derived from them.
            out("Netlist")
            self.write(obj.name)
            self.write(obj.library)
            for records in (obj.instances, obj.nets, obj.ports):
                out(f"records {len(records)}")
                for record in records.values():
                    self.write(record)
        elif kind is CellLibrary:
            out("CellLibrary")
            self.write(obj.name)
            self.write(obj.vdd)
            cells = obj.cells()
            out(f"cells {len(cells)}")
            for cell in cells:
                self.write(cell)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            fields = dataclasses.fields(obj)
            out(f"{_qualname(kind)} {len(fields)}")
            for f in fields:
                out(f.name)
                self.write(getattr(obj, f.name))
        else:
            raise TypeError(f"no value projection for {_qualname(kind)}")


def _values(result) -> bytes:
    """Every output value of ``result``'s design point, as bytes.

    Dataclass and NamedTuple fields by name, a ``Netlist`` as its name,
    library and instance, net and port records in order, floats by
    their bits and type (``float`` or ``numpy.float64``), arrays by
    dtype, shape and bytes, sets sorted, dicts in order and enums by
    name.  It drops what ``_canonical`` strips and the netlists'
    private caches, and raises ``TypeError`` on any other type: unlike
    the stored bytes, it does not change when storage does.
    """
    writer = _ValueWriter()
    writer.write(_stripped(result))
    return "\n".join(writer.lines).encode()


#: Child-process script: digests of the full flow (eyes and thermal
#: on) at scale 0.03, seed 7, for the designs named on its command line.
_FULL_FLOW_DIGESTS = """
import hashlib, json, sys
from repro.core.flow import run_design
from tests.core.test_nchiplet_flow import _values
print(json.dumps({d: hashlib.sha256(_values(run_design(
    d, scale=0.03, seed=7, use_cache=False))).hexdigest()
    for d in sys.argv[1:]}))
"""


def assert_pinned(result, scale, with_eyes, with_thermal):
    """The result's value digest equals the one pinned for its point."""
    key = (result.spec.name, scale, with_eyes, with_thermal,
           result.num_chiplets, result.arrangement)
    digest = hashlib.sha256(_values(result)).hexdigest()
    assert digest == VALUE_DIGESTS[key], key


class TestDefaultTopologyByteIdentity:
    #: The congested organic designs (apx) route much faster at a
    #: smaller scale than the rest of the suite uses.
    EQUIV_SCALE = 0.012

    @pytest.mark.parametrize("design", spec_names())
    def test_digest_pinned(self, design):
        result = run_design(design, scale=self.EQUIV_SCALE, seed=7,
                            with_eyes=False, with_thermal=False,
                            use_cache=False)
        assert_pinned(result, self.EQUIV_SCALE, False, False)
        assert result.chiplets is None  # the paper's pair, not a partition
        assert result.num_chiplets == 2
        assert result.arrangement == "grid"

    def test_full_flow_digest_pinned(self):
        # Eye synthesis sums through BLAS, and the BLAS thread count
        # moves the last bits of the eye envelopes, so these points run
        # in a child process limited to one BLAS thread.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                   REPRO_FLOW_CACHE="0",
                   PYTHONPATH=os.pathsep.join(
                       [str(ROOT / "src"), str(ROOT),
                        os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", _FULL_FLOW_DIGESTS, "glass_25d",
             "glass_3d"],
            env=env, cwd=ROOT, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        digests = json.loads(out.stdout)
        for design in ("glass_25d", "glass_3d"):
            assert digests[design] == VALUE_DIGESTS[
                (design, 0.03, True, True, 2, "grid")], design

    def test_default_cache_key_unchanged(self):
        # The default topology is the same request, and the same store
        # entry, whether or not its axes are spelled out; the topology
        # is always part of the cache token.
        base = EvalRequest(design="glass_25d", scale=SCALE, seed=7)
        explicit = EvalRequest(design="glass_25d", scale=SCALE, seed=7,
                               num_chiplets=2, arrangement="grid")
        assert base.cache_token() == explicit.cache_token()
        assert base == explicit and hash(base) == hash(explicit)
        tagged = EvalRequest(design="glass_25d", scale=SCALE, seed=7,
                             num_chiplets=4, arrangement="row")
        assert tagged != base
        assert tagged.to_dict()["num_chiplets"] == 4
        assert tagged.to_dict()["arrangement"] == "row"
        assert tagged.cache_token() != base.cache_token()


class TestValueProjection:
    @pytest.fixture(scope="class")
    def eyed(self):
        return run_design("glass_25d", scale=0.012, seed=7,
                          with_eyes=True, with_thermal=False,
                          use_cache=False)

    @staticmethod
    def _bump(array, index):
        array[index] = np.nextafter(array[index], np.inf)

    @staticmethod
    def _swap_two_sinks(netlist):
        # Records are snapshots, so the swap goes into the pin buffer.
        e = next(e for e, n in enumerate(netlist.nets.values())
                 if len(set(n.sinks)) > 1)
        before = netlist.net(netlist._net_names[e]).sinks
        pins = netlist._pins
        first = netlist._pin_ptr[e] + (netlist._driver[e] >= 0)
        other = next(i for i in range(first, netlist._pin_ptr[e + 1])
                     if pins[i] != pins[first])
        pins[first], pins[other] = pins[other], pins[first]
        after = netlist.net(netlist._net_names[e]).sinks
        assert after != before and sorted(after) == sorted(before)

    @pytest.mark.parametrize("mutation", ["placement_x", "sinks", "eye"])
    def test_one_ulp_or_one_swap_moves_the_digest(self, eyed, mutation):
        twin = pickle.loads(pickle.dumps(eyed))
        assert _values(twin) == _values(eyed)
        if mutation == "placement_x":
            self._bump(twin.logic.placement.x_um, 17)
        elif mutation == "sinks":
            self._swap_two_sinks(twin.memory.netlist)
        else:
            high = twin.l2m_eye.high_min
            self._bump(high, len(high) // 2)
        assert _values(twin) != _values(eyed)

    def test_sharing_is_part_of_the_value(self):
        def text(graph):
            writer = _ValueWriter()
            writer.write(graph)
            return writer.lines
        shared = [1.0]
        assert text([shared, shared]) != text([[1.0], [1.0]])
        assert text({"b", "a"}) == text({"a", "b"})
        assert text(np.float64(1.0)) != text(1.0)

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError, match="no value projection"):
            _ValueWriter().write([object()])


class TestNchipletEndToEnd:
    @pytest.fixture(scope="class")
    def hex9(self):
        return run_design("glass_25d", scale=SCALE, seed=7,
                          num_chiplets=9, arrangement="hexagonal",
                          with_eyes=False, with_thermal=True,
                          use_cache=False)

    def test_nine_parts_implemented(self, hex9):
        assert hex9.num_chiplets == 9
        assert hex9.arrangement == "hexagonal"
        assert hex9.chiplets is not None and len(hex9.chiplets) == 9
        assert len(hex9.placement.dies) == 9
        assert not overlaps(hex9.placement)

    def test_representatives_alias_parts(self, hex9):
        assert hex9.logic in hex9.chiplets
        assert hex9.memory in hex9.chiplets
        assert hex9.logic.kind == "logic"

    def test_route_and_analyses_complete(self, hex9):
        assert hex9.route is not None and hex9.route.routed_nets()
        assert hex9.pdn_impedance is not None
        assert hex9.ir_drop is not None
        assert hex9.thermal is not None
        assert hex9.fullchip.total_power_mw > 0

    def test_table4_row_complete(self, hex9):
        row = hex9.table4_row()
        for key in ("signal_layers", "total_wl_mm", "via_usage"):
            assert key in row

    def test_deterministic(self, hex9):
        again = run_design("glass_25d", scale=SCALE, seed=7,
                           num_chiplets=9, arrangement="hexagonal",
                           with_eyes=False, with_thermal=True,
                           use_cache=False)
        assert _canonical(again) == _canonical(hex9)

    def test_digest_pinned(self, hex9):
        assert_pinned(hex9, SCALE, False, True)

    @pytest.mark.parametrize("design,n,arrangement",
                             [("shinko", 3, "row"), ("glass_25d", 2, "row")])
    def test_lateral_digest_pinned(self, design, n, arrangement):
        result = run_design(design, scale=SCALE, seed=7, num_chiplets=n,
                            arrangement=arrangement, with_eyes=False,
                            with_thermal=False, use_cache=False)
        assert result.chiplets is not None and len(result.chiplets) == n
        assert_pinned(result, SCALE, False, False)

    def test_flow_task_roundtrip_runs_nchiplet(self):
        task = EvalRequest(design="glass_25d", scale=SCALE, seed=7,
                           with_eyes=False, with_thermal=False,
                           num_chiplets=3.0, arrangement="row")
        # The constructor canonicalizes the topology, so a request
        # rebuilt from its own fields is equal to (and hashes like) the
        # original.
        assert task.num_chiplets == 3 and type(task.num_chiplets) is int
        fields = {f.name: getattr(task, f.name)
                  for f in dataclasses.fields(task)}
        assert EvalRequest(**fields) == task
        assert hash(EvalRequest(**fields)) == hash(task)
        out = run_flow_task(task, use_cache=False)
        assert out.ok, out.error_message
        assert out.result.num_chiplets == 3
        assert len(out.result.placement.dies) == 3

    def test_stacked_arrangement_embeds(self):
        result = run_design("glass_3d", scale=SCALE, seed=7,
                            num_chiplets=4, arrangement="stacked",
                            with_eyes=False, with_thermal=False,
                            use_cache=False)
        levels = {d.level for d in result.placement.dies}
        assert levels == {"top", "embedded"}
        assert_pinned(result, SCALE, False, False)

    def test_tsv_stack_collapses_to_column(self):
        result = run_design("silicon_3d", scale=SCALE, seed=7,
                            num_chiplets=4, arrangement="grid",
                            with_eyes=False, with_thermal=False,
                            use_cache=False)
        assert result.route is None  # no interposer to route
        assert len({d.level for d in result.placement.dies}) == 4
        assert_pinned(result, SCALE, False, False)


class TestTopologyValidation:
    def test_run_design_rejects_bad_count(self):
        with pytest.raises(ValueError, match="num_chiplets"):
            run_design("glass_25d", scale=SCALE, num_chiplets=1)

    def test_run_design_rejects_bad_arrangement(self):
        with pytest.raises(ValueError, match="arrangement"):
            run_design("glass_25d", scale=SCALE, arrangement="ring")

    def test_task_spec_rejects_bad_topology(self):
        with pytest.raises(ValueError, match="num_chiplets"):
            EvalRequest(design="glass_25d", num_chiplets=65)
        with pytest.raises(ValueError, match="arrangement"):
            EvalRequest(design="glass_25d", arrangement="ring")

    def test_run_design_rejects_part_count_shortfall(self):
        # The netlist is too small to bisect into 64 parts: the flow
        # used to finish with 62 dies while reporting num_chiplets=64.
        with pytest.raises(ValueError, match="62 parts of the 64"):
            run_design("glass_25d", scale=0.005, seed=7, num_chiplets=64,
                       arrangement="grid", with_eyes=False,
                       with_thermal=False, use_cache=False)

    def test_stacked_needs_cavity_interposer(self):
        with pytest.raises(ValueError, match="embed"):
            run_design("silicon_25d", scale=SCALE, num_chiplets=4,
                       arrangement="stacked", with_eyes=False,
                       with_thermal=False, use_cache=False)
