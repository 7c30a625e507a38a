"""The flow's byte-identity pins and N-chiplet end-to-end runs.

The paper's topology and every N-chiplet topology run through one stage
pipeline.  Refactors must not move a single output byte, so the
stripped ``canonical_dumps`` digests of a fixed set of points are
pinned: the six designs with the paper's topology, glass 2.5D and
glass 3D with eyes and thermal on, and five N-chiplet points.  The
digests were taken from the flow as it stood before its 2-chiplet and
N-chiplet bodies were folded into that one pipeline, and they are
stable across processes and hash seeds (the eye points also need a
fixed BLAS thread count).

Any other topology runs the full pipeline end to end: N-way
partition, per-part implementation, arrangement-aware placement,
interposer routing/PDN/SI/thermal, and a complete Table IV row.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.flow import (FlowTaskSpec, run_design, run_flow_task,
                             task_disk_key)
from repro.serve.protocol import canonical_dumps
from repro.tech.interposer import spec_names

SCALE = 0.02
ROOT = Path(__file__).resolve().parents[2]

#: sha256 of ``_canonical(result)`` per pinned point, keyed
#: ``(design, scale, with_eyes, with_thermal, num_chiplets,
#: arrangement)``; seed 7 throughout, eye points with one BLAS thread.
PINNED_DIGESTS = {
    ("glass_25d", 0.012, False, False, 2, "grid"):
        "cad969be3ba059108607aea62942f3c6f3d0c8f220a57b94dff108f48b5713d1",
    ("glass_3d", 0.012, False, False, 2, "grid"):
        "ea4f820baf5efee80e593086247d80909855a80292dbaf3b7d8dd6f8d3a824af",
    ("silicon_25d", 0.012, False, False, 2, "grid"):
        "950c399e68e741adc6929aec265573f42365a8155fb80a4655113abd73f3a4d5",
    ("silicon_3d", 0.012, False, False, 2, "grid"):
        "a5da6f298141352e93969ac1f5a80880e7ea0e9e6c59627890292178d36a94a3",
    ("shinko", 0.012, False, False, 2, "grid"):
        "8e2b5e26e2313bc7ea43e9d4a2bcf1e28f8ff3532af094cf8d73c94351db98dd",
    ("apx", 0.012, False, False, 2, "grid"):
        "1c8940ebcdae6ae4907c08a78ac125de9eeb4852d2d26114f10983354282df0d",
    ("glass_25d", 0.03, True, True, 2, "grid"):
        "98b476388cc0edeacfaf7d2abea2333d724a43d03529d8cda4b83f23300195ac",
    ("glass_3d", 0.03, True, True, 2, "grid"):
        "a7a087eb3658f6d2882b8f6fe17306da049eb949f80e1d02d9c91dd778e821d9",
    ("glass_25d", SCALE, False, True, 9, "hexagonal"):
        "e18deafa6914a821fd13c0bada726f2788c9d2fd4e11d84c0d1b7cc6b253a51d",
    ("glass_3d", SCALE, False, False, 4, "stacked"):
        "8a291c6eef9cd80cf9af8fca8d570be476c4e421211815608f8b714072cdf74c",
    ("shinko", SCALE, False, False, 3, "row"):
        "dccfe1688ad09d16b5e9931ac631285fc8b564ecde9418d3e5fd1071b5adcca7",
    ("silicon_3d", SCALE, False, False, 4, "grid"):
        "15c23cdefec80272b8a01543df5ad83da38ba863dcd5dce7c9885e3893417a2f",
    ("glass_25d", SCALE, False, False, 2, "row"):
        "1872d7ce3cfcd5d16817bf0317b48c8a8ea37ecdb6a3a27239a7133cf78747b8",
}


def _canonical(result):
    """Strip run-to-run observability (wall times, solver counters,
    router timing stats) — everything else must be a pure function of
    the design point."""
    route = result.route
    if route is not None and route.stats is not None:
        route = dataclasses.replace(route, stats=None)
    return canonical_dumps(dataclasses.replace(
        result, route=route, stage_times=None, solver_stats=None,
        stage_solver_stats=None))


#: Child-process script: digests of the full flow (eyes and thermal
#: on) at scale 0.03, seed 7, for the designs named on its command line.
_FULL_FLOW_DIGESTS = """
import hashlib, json, sys
from repro.core.flow import run_design
from tests.core.test_nchiplet_flow import _canonical
print(json.dumps({d: hashlib.sha256(_canonical(run_design(
    d, scale=0.03, seed=7, use_cache=False))).hexdigest()
    for d in sys.argv[1:]}))
"""


def assert_pinned(result, scale, with_eyes, with_thermal):
    """The result's digest equals the one pinned for its point."""
    key = (result.spec.name, scale, with_eyes, with_thermal,
           result.num_chiplets, result.arrangement)
    digest = hashlib.sha256(_canonical(result)).hexdigest()
    assert digest == PINNED_DIGESTS[key], key


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
            assert digests[design] == PINNED_DIGESTS[
                (design, 0.03, True, True, 2, "grid")], design

    def test_default_cache_key_unchanged(self):
        # The default topology is the same task, and the same disk
        # entry, whether or not its axes are spelled out; the topology
        # is always part of the disk key.
        base = FlowTaskSpec(design="glass_25d", scale=SCALE, seed=7)
        explicit = FlowTaskSpec(design="glass_25d", scale=SCALE, seed=7,
                                num_chiplets=2, arrangement="grid")
        assert task_disk_key(base) == task_disk_key(explicit)
        assert base == explicit and hash(base) == hash(explicit)
        tagged = FlowTaskSpec(design="glass_25d", scale=SCALE, seed=7,
                              num_chiplets=4, arrangement="row")
        assert tagged != base
        assert "-n4-arow" in task_disk_key(tagged)
        assert task_disk_key(tagged) != task_disk_key(base)


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
        assert not hex9.placement.overlaps()

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
        task = FlowTaskSpec(design="glass_25d", scale=SCALE, seed=7,
                            with_eyes=False, with_thermal=False,
                            num_chiplets=3, arrangement="row")
        # The constructor canonicalizes the topology, so a task rebuilt
        # from its own fields is equal to (and hashes like) the original.
        fields = {f.name: getattr(task, f.name)
                  for f in dataclasses.fields(task)}
        assert FlowTaskSpec(**fields) == task
        assert hash(FlowTaskSpec(**fields)) == hash(task)
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
        with pytest.raises(ValueError):
            FlowTaskSpec(design="glass_25d", num_chiplets=65)
        with pytest.raises(ValueError):
            FlowTaskSpec(design="glass_25d", arrangement="ring")

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
