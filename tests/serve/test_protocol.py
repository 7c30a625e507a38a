"""Wire-type tests: request canonicalization, tokens, execution."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.arch.generate import clear_netlist_memo
from repro.arch.netlist import Netlist
from repro.chiplet.floorplan import floorplan
from repro.chiplet.place import place
from repro.core.flow import run_flow_task
from repro.core.request import code_version
from repro.serve.protocol import (EvalRequest, canonical_dumps,
                                  execute_request, request_for_point)
from repro.si import channel
from repro.tech.stdcell import N28_LIB


class TestEvalRequestCanonicalization:
    def test_round_trip(self):
        req = EvalRequest(kind="link", length_um=1500.0,
                          spec_overrides=(("tsv_pitch_um", 40.0),))
        assert EvalRequest.from_dict(req.to_dict()) == req

    def test_overrides_sorted_regardless_of_input_order(self):
        a = EvalRequest(spec_overrides=(("b", 2.0), ("a", 1.0)))
        b = EvalRequest(spec_overrides=(("a", 1.0), ("b", 2.0)))
        assert a == b
        assert a.cache_token() == b.cache_token()

    def test_alias_resolution_canonicalizes_token(self):
        fancy = EvalRequest.from_dict({"design": "Glass-2.5D"})
        plain = EvalRequest.from_dict({"design": "glass_25d"})
        assert fancy.design == "glass_25d"
        assert fancy.cache_token() == plain.cache_token()

    def test_token_is_stable_and_code_versioned(self):
        req = EvalRequest(kind="geometry")
        assert req.cache_token() == req.cache_token()
        assert len(req.cache_token()) == 32
        # Different requests address different entries.
        assert req.cache_token() != \
            EvalRequest(kind="geometry", scale=2.0).cache_token()
        # The code version participates: the canonical JSON alone does
        # not determine the token.
        assert code_version()  # non-empty by contract

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown request keys"):
            EvalRequest.from_dict({"design": "glass_25d",
                                   "fidelity": "high"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            EvalRequest.from_dict({"kind": "spice"})

    def test_unknown_design_rejected(self):
        with pytest.raises(KeyError):
            EvalRequest.from_dict({"design": "fr4"})

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="scale must be > 0"):
            EvalRequest.from_dict({"scale": 0})

    @pytest.mark.parametrize("data", [
        {"kind": "flow", "scale": float("nan")},
        {"kind": "flow", "scale": float("inf")},
        {"kind": "link", "length_um": float("nan")},
        {"kind": "link", "length_um": float("inf")},
        {"kind": "flow", "target_frequency_mhz": -700.0},
        {"kind": "link", "target_frequency_mhz": 0.0},
        {"kind": "flow", "target_frequency_mhz": float("nan")},
        {"kind": "flow", "target_frequency_mhz": float("inf")},
    ])
    def test_non_finite_or_nonpositive_values_rejected(self, data):
        # None is a usable value; several used to be queued and fail
        # only later, inside a pool worker.
        field_name = next(k for k in data if k != "kind")
        with pytest.raises(ValueError,
                           match=f"{field_name} must be > 0 and finite"):
            EvalRequest.from_dict(data)

    def test_flow_task_mapping(self):
        # A flow request is the flow's own key: its wire form, whatever
        # link length it names (the flow never reads one), parses to an
        # equal request that addresses the same entry.
        req = EvalRequest(scale=0.02, seed=11, with_eyes=False,
                          with_thermal=False)
        wire = EvalRequest.from_dict(dict(req.to_dict(), length_um=3000.0))
        assert wire == req and hash(wire) == hash(req)
        assert wire.length_um == req.length_um == 2000.0
        assert wire.cache_token() == req.cache_token()
        link = EvalRequest(kind="link", length_um=3000.0)
        assert link.cache_token() != EvalRequest(kind="link").cache_token()

    def test_flow_task_requires_flow_kind(self):
        out = run_flow_task(EvalRequest(kind="geometry"))
        assert not out.ok and out.result is None
        assert out.error_type == "ValueError"
        assert "not a flow request" in out.error_message


class TestExecuteRequest:
    def test_geometry_metrics(self):
        out = execute_request(EvalRequest(kind="geometry"))
        assert out.ok
        assert out.metrics["interposer_area_mm2"] > 0
        # Identical to the row a local sweep of the same point writes.
        from repro.dse.runner import run_sweep
        from repro.dse.space import Axis, SweepSpec
        sweep = SweepSpec(name="t", design="glass_25d",
                          evaluator="geometry",
                          axes=(Axis("design", values=("glass_25d",)),))
        assert run_sweep(sweep)[0]["metrics"] == out.metrics

    @pytest.mark.parametrize("field", ["style", "name", "routing",
                                       "no_such_field"])
    def test_override_errors_equal_on_every_kind(self, field):
        # One spec resolution (EvalRequest.spec) for the flow and the
        # three stage evaluators: a protected or unknown field fails
        # every kind with the same error.
        outs = [execute_request(EvalRequest(
                    kind=kind, scale=0.02, with_eyes=False,
                    with_thermal=False,
                    spec_overrides=((field, "foo"),)))
                for kind in ("flow", "geometry", "link", "link_pdn")]
        errors = {(out.error_type, out.error_message) for out in outs}
        assert not any(out.ok for out in outs)
        if field == "no_such_field":
            assert errors == {("AttributeError", "InterposerSpec has no "
                               "field 'no_such_field'")}
        else:
            assert errors == {("ValueError", f"spec field {field!r} "
                               f"cannot be overridden")}

    def test_flow_matches_direct_evaluation(self, monkeypatch,
                                            tmp_path):
        monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "c"))
        req = EvalRequest(scale=0.02, with_eyes=False,
                          with_thermal=False)
        out = execute_request(req)
        direct = run_flow_task(req)
        assert out.ok and direct.ok
        # Identical evaluator code path: the full DesignResult agrees.
        assert out.result.fullchip.total_power_mw == \
            direct.result.fullchip.total_power_mw
        assert out.result.logic.fmax_mhz == direct.result.logic.fmax_mhz

    def test_flow_canonical_is_a_pure_function_of_the_request(
            self, monkeypatch):
        # Two fresh evaluations, every cache cleared in between, differ
        # only in how their runs went; canonical() must drop all of it.
        # The second reaches canonical_dumps unpickled, as a pool
        # worker's result reaches the store.
        monkeypatch.setenv("REPRO_FLOW_CACHE", "0")
        req = EvalRequest(design="glass_3d", scale=0.012,
                          with_eyes=False, with_thermal=False)
        payloads = []
        for unpickled in (False, True):
            clear_netlist_memo()
            channel._CHANNEL_SIM_CACHE.clear()
            channel._PADS_REF_CACHE.clear()
            out = execute_request(req)
            assert out.ok and not out.cached
            if unpickled:
                out = pickle.loads(pickle.dumps(out))
            payloads.append(canonical_dumps(out.canonical()))
        assert payloads[0] == payloads[1]

    def test_error_is_structured_not_raised(self):
        req = EvalRequest(kind="geometry")
        object.__setattr__(req, "design", "fr4")  # corrupt post-parse
        out = execute_request(req)
        assert not out.ok
        assert out.error_type == "KeyError"
        assert "fr4" in out.error_message
        assert "Traceback" in out.error_traceback


class TestRequestForPoint:
    def test_expands_tied_fields_like_local_evaluator(self):
        from repro.dse.space import Axis, SweepSpec
        sweep = SweepSpec(
            name="t", design="glass_25d", evaluator="link",
            length_um=1000.0,
            axes=(Axis("min_wire_width_um", values=(1.0, 2.0),
                       tied=("min_wire_space_um",)),))
        req = request_for_point(sweep, {"min_wire_width_um": 2.0})
        assert dict(req.spec_overrides) == {"min_wire_width_um": 2.0,
                                            "min_wire_space_um": 2.0}
        assert req.kind == "link"
        assert req.length_um == 1000.0

    def test_flow_level_axes_resolve(self):
        from repro.dse.space import Axis, SweepSpec
        sweep = SweepSpec(
            name="t", design="glass_25d", evaluator="link_pdn",
            axes=(Axis("length_um", values=(500.0, 900.0)),))
        req = request_for_point(sweep, {"length_um": 900.0})
        assert req.length_um == 900.0
        assert req.spec_overrides == ()


class TestTopologyProtocol:
    def test_topology_round_trips(self):
        req = EvalRequest.from_dict({"kind": "flow", "scale": 0.02,
                                     "num_chiplets": 6,
                                     "arrangement": "hexagonal"})
        assert req.num_chiplets == 6
        assert req.arrangement == "hexagonal"
        assert EvalRequest.from_dict(req.to_dict()) == req

    def test_flow_task_carries_topology(self):
        # The request checks and canonicalizes its topology when it is
        # built, as the flow's own task type once did.
        req = EvalRequest(kind="flow", scale=0.02, num_chiplets=4.0,
                          arrangement="row")
        assert req.num_chiplets == 4 and type(req.num_chiplets) is int
        assert req.arrangement == "row"
        with pytest.raises(ValueError, match="num_chiplets"):
            EvalRequest(kind="flow", num_chiplets=65)

    def test_normalizes_integral_float_count(self):
        req = EvalRequest.from_dict({"kind": "geometry",
                                     "num_chiplets": 4.0})
        assert req.num_chiplets == 4
        assert isinstance(req.num_chiplets, int)

    def test_topology_distinguishes_tokens(self):
        a = EvalRequest(kind="flow", num_chiplets=4)
        b = EvalRequest(kind="flow", num_chiplets=6)
        assert a.cache_token() != b.cache_token()


class TestCanonicalDumpsBuffers:
    """Arrays pickle their buffers in band; CPython shares one object
    among all empty buffers, which must not become a shared memo
    entry."""

    def test_two_empty_arrays(self):
        back = pickle.loads(canonical_dumps([np.zeros(0), np.zeros(0)]))
        assert [(a.dtype, a.shape) for a in back] == \
            [(np.dtype(float), (0,))] * 2

    def test_empty_bytes_after_an_empty_array_stays_bytes(self):
        graph = [np.zeros(0), b""]
        back = pickle.loads(canonical_dumps(graph))
        assert type(back[1]) is bytes
        assert back[1] == b""
        assert canonical_dumps(graph) == pickle.dumps(graph, protocol=5)

    def test_placement_of_an_empty_netlist(self):
        netlist = Netlist("empty", N28_LIB)
        placement = place(netlist, floorplan(netlist, 100.0, 100.0))
        payload = canonical_dumps(placement)
        back = pickle.loads(payload)
        assert back.x_um.shape == back.y_um.shape == (0,)
        assert canonical_dumps(back) == payload


#: Child-process script: for each request (JSON fields on the command
#: line), the sha256 of its stored bytes and whether those bytes,
#: loaded and dumped again, come back unchanged.
_STORED_BYTES = """
import hashlib, json, pickle, sys
from repro.serve.protocol import EvalRequest, canonical_dumps, execute_request
out = []
for fields in json.loads(sys.argv[1]):
    served = execute_request(EvalRequest(**fields))
    assert served.ok, served.error_message
    payload = canonical_dumps(served.canonical())
    out.append([hashlib.sha256(payload).hexdigest(),
                canonical_dumps(pickle.loads(payload)) == payload])
print(json.dumps(out))
"""


class TestStoredBytesContract:
    """The store promises that a flow result's bytes are a function of
    its request: equal in any process, under any hash seed, and equal
    again once loaded and dumped."""

    POINTS = [
        dict(design="glass_3d", scale=0.012, with_eyes=False,
             with_thermal=False),
        dict(design="glass_25d", scale=0.02, num_chiplets=9,
             arrangement="hexagonal", with_eyes=False, with_thermal=True),
    ]

    def test_equal_bytes_across_hash_seeds_and_a_reload(self):
        root = Path(__file__).resolve().parents[2]
        children = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       REPRO_FLOW_CACHE="0", OPENBLAS_NUM_THREADS="1",
                       PYTHONPATH=os.pathsep.join(
                           [str(root / "src"),
                            os.environ.get("PYTHONPATH", "")]))
            children.append(subprocess.Popen(
                [sys.executable, "-c", _STORED_BYTES,
                 json.dumps(self.POINTS)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True))
        outs = []
        for child in children:
            stdout, stderr = child.communicate()
            assert child.returncode == 0, stderr
            outs.append(json.loads(stdout))
        assert outs[0] == outs[1]
        assert [reloaded for _digest, reloaded in outs[0]] == [True, True]
