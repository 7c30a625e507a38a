"""Sweep-space declaration, sampling, and serialization tests."""

import json

import pytest

from repro.dse.space import Axis, SweepSpec, request_for_point


def make_spec(**kw):
    defaults = dict(
        name="t", design="glass_25d", evaluator="link", sampler="grid",
        axes=(Axis("min_wire_width_um", values=(1.0, 2.0)),
              Axis("dielectric_thickness_um", lo=5.0, hi=30.0, num=3)))
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestAxis:
    def test_explicit_grid(self):
        a = Axis("microbump_pitch_um", values=(30, 40, 50))
        assert a.grid_values() == (30, 40, 50)

    def test_range_grid_linspace(self):
        a = Axis("dielectric_thickness_um", lo=10.0, hi=30.0, num=3)
        assert a.grid_values() == (10.0, 20.0, 30.0)

    def test_log_range(self):
        a = Axis("dielectric_thickness_um", lo=1.0, hi=100.0, num=3,
                 log=True)
        assert a.grid_values() == pytest.approx((1.0, 10.0, 100.0))

    def test_from_unit_range_endpoints(self):
        a = Axis("scale", lo=0.0, hi=2.0)
        assert a.from_unit(0.0) == 0.0
        assert a.from_unit(0.5) == 1.0

    def test_from_unit_explicit_by_index(self):
        a = Axis("design", values=("glass_25d", "apx"))
        assert a.from_unit(0.1) == "glass_25d"
        assert a.from_unit(0.9) == "apx"

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="neither a flow parameter"):
            Axis("warp_factor", values=(1,)).validate()

    def test_protected_field_rejected(self):
        with pytest.raises(ValueError, match="protected"):
            Axis("style", values=("2.5D",)).validate()

    def test_values_and_range_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            Axis("scale", values=(1.0,), lo=0.0, hi=1.0).validate()

    def test_range_needs_bounds(self):
        with pytest.raises(ValueError, match="lo/hi"):
            Axis("scale", lo=1.0).validate()

    def test_unknown_design_value_rejected(self):
        with pytest.raises(KeyError):
            Axis("design", values=("fr4",)).validate()

    def test_design_alias_value_accepted(self):
        Axis("design", values=("Glass-2.5D",)).validate()

    def test_bad_tied_field(self):
        with pytest.raises(ValueError, match="tied"):
            Axis("min_wire_width_um", values=(1.0,),
                 tied=("nope",)).validate()

    def test_tied_on_flow_parameter_rejected(self):
        # request_for_point only expands tied fields for spec-field
        # axes; declaring them on a flow axis would silently drop them.
        with pytest.raises(ValueError, match="flow parameters"):
            Axis("scale", values=(0.02,),
                 tied=("min_wire_width_um",)).validate()


class TestGridPoints:
    def test_cartesian_product_in_axis_order(self):
        pts = make_spec().points()
        assert len(pts) == 6
        assert pts[0] == {"min_wire_width_um": 1.0,
                          "dielectric_thickness_um": 5.0}
        assert pts[2] == {"min_wire_width_um": 1.0,
                          "dielectric_thickness_um": 30.0}
        assert pts[3]["min_wire_width_um"] == 2.0

    def test_values_canonicalized(self):
        import numpy as np
        spec = make_spec(axes=(
            Axis("min_wire_width_um", values=(np.float64(1.5),)),))
        v = spec.points()[0]["min_wire_width_um"]
        assert type(v) is float and v == 1.5

    def test_point_ids_stable(self):
        spec = make_spec()
        assert spec.point_id(0) == "p00000"
        assert spec.point_id(12) == "p00012"


class TestSampledPoints:
    def lhs_spec(self, seed=3, n=8):
        return make_spec(sampler="lhs", num_samples=n, seed=seed,
                         axes=(Axis("min_wire_width_um", lo=1.0, hi=5.0),
                               Axis("dielectric_thickness_um",
                                    lo=5.0, hi=30.0)))

    def test_deterministic_in_seed(self):
        assert self.lhs_spec().points() == self.lhs_spec().points()
        assert (self.lhs_spec(seed=4).points()
                != self.lhs_spec(seed=3).points())

    def test_lhs_stratifies_every_axis(self):
        n = 8
        pts = self.lhs_spec(n=n).points()
        for axis, lo, hi in (("min_wire_width_um", 1.0, 5.0),
                             ("dielectric_thickness_um", 5.0, 30.0)):
            bins = sorted(int((p[axis] - lo) / (hi - lo) * n)
                          for p in pts)
            assert bins == list(range(n))  # one sample per stratum

    def test_random_within_bounds(self):
        spec = make_spec(sampler="random", num_samples=20, seed=1,
                         axes=(Axis("scale", lo=0.01, hi=0.05),))
        for p in spec.points():
            assert 0.01 <= p["scale"] < 0.05

    def test_sampler_needs_num_samples(self):
        with pytest.raises(ValueError, match="num_samples"):
            make_spec(sampler="random").validate()


class TestValidation:
    def test_duplicate_axes(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_spec(axes=(Axis("scale", values=(0.1,)),
                            Axis("scale", values=(0.2,)))).validate()

    def test_unknown_sampler(self):
        with pytest.raises(ValueError, match="sampler"):
            make_spec(sampler="sobol").validate()

    def test_unknown_evaluator(self):
        with pytest.raises(ValueError, match="evaluator"):
            make_spec(evaluator="spice").validate()

    def test_bad_objective_sense(self):
        with pytest.raises(ValueError, match="min or max"):
            make_spec(objectives=(("delay_ps", "lowest"),)).validate()

    def test_needs_axes(self):
        with pytest.raises(ValueError, match="axis"):
            make_spec(axes=()).validate()


class TestPointRequests:
    """Every point's request is built and validated with the spec, so
    a space the evaluation service would refuse point by point is
    refused before anything runs, locally and remotely alike."""

    def test_non_integral_chiplet_count_names_the_point(self):
        spec = make_spec(evaluator="geometry", sampler="random",
                         num_samples=3,
                         axes=(Axis("num_chiplets", lo=2, hi=8),))
        with pytest.raises(ValueError, match="point p00000: num_chiplets "
                                             "must be an integer"):
            spec.validate()

    def test_non_positive_length_names_the_point(self):
        spec = make_spec(axes=(Axis("length_um", values=(500.0, 0.0)),))
        with pytest.raises(ValueError, match="point p00001: length_um "
                                             "must be > 0"):
            spec.validate()

    def test_subset_point_named_by_its_full_index(self):
        spec = make_spec(axes=(Axis("length_um",
                                    values=(500.0, 900.0, -1.0)),),
                         subset=(0, 2))
        with pytest.raises(ValueError, match="point p00002"):
            spec.validate()
        assert len(make_spec(axes=spec.axes, subset=(0, 1)).points()) == 2

    def test_integral_chiplet_range_is_normalized(self):
        spec = make_spec(evaluator="geometry",
                         axes=(Axis("num_chiplets", lo=2, hi=8, num=4),))
        counts = [request_for_point(spec, p).num_chiplets
                  for p in spec.points()]
        assert counts == [2, 4, 6, 8]
        assert all(type(n) is int for n in counts)

    def test_spec_field_values_stay_per_point(self):
        # A bad InterposerSpec value is an error row when the point is
        # evaluated (EvalRequest.spec), not a refused sweep.
        make_spec(axes=(Axis("min_wire_width_um",
                             values=(2.0, -1.0)),)).validate()


class TestSerialization:
    def test_dict_round_trip_preserves_hash_and_points(self):
        spec = make_spec(objectives=(("delay_ps", "min"),))
        clone = SweepSpec.from_dict(spec.to_dict())
        assert clone.spec_hash() == spec.spec_hash()
        assert clone.points() == spec.points()

    def test_hash_changes_with_axes(self):
        a = make_spec()
        b = make_spec(axes=(Axis("min_wire_width_um",
                                 values=(1.0, 3.0)),))
        assert a.spec_hash() != b.spec_hash()

    def test_from_file_json(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(make_spec().to_dict()))
        assert SweepSpec.from_file(path).spec_hash() \
            == make_spec().spec_hash()

    def test_from_file_yaml(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "space.yaml"
        path.write_text(yaml.safe_dump(make_spec().to_dict()))
        assert SweepSpec.from_file(path).spec_hash() \
            == make_spec().spec_hash()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            SweepSpec.from_dict({"name": "t", "axes": [], "turbo": True})

    def test_from_dict_rejects_unknown_axis_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            SweepSpec.from_dict({
                "name": "t",
                "axes": [{"name": "scale", "step": 0.1}]})

    def test_from_dict_canonicalizes_design_alias(self):
        spec = SweepSpec.from_dict({
            "name": "t", "design": "Glass-2.5D", "evaluator": "link",
            "axes": [{"name": "min_wire_width_um", "values": [2.0]}]})
        assert spec.design == "glass_25d"

    def test_example_space_files_parse(self):
        import os
        from repro.dse.fidelity import load_space
        spaces = os.path.join(os.path.dirname(__file__), os.pardir,
                              os.pardir, "examples", "spaces")
        names = sorted(os.listdir(spaces))
        assert len(names) >= 2
        for fname in names:
            spec, mf = load_space(os.path.join(spaces, fname))
            if mf is not None:
                mf.validate()
            else:
                spec.validate()
            assert spec.points()


class TestSubset:
    def test_points_filtered_in_order(self):
        full = make_spec()
        sub = make_spec(subset=(1, 3, 5))
        base = full.points()
        assert sub.points() == [base[1], base[3], base[5]]

    def test_point_ids_keep_parent_index(self):
        sub = make_spec(subset=(1, 3, 5))
        assert [sub.point_id(i) for i in range(3)] \
            == ["p00001", "p00003", "p00005"]

    def test_subset_changes_hash_and_round_trips(self):
        full = make_spec()
        sub = make_spec(subset=(0, 2))
        assert sub.spec_hash() != full.spec_hash()
        clone = SweepSpec.from_dict(sub.to_dict())
        assert clone.subset == (0, 2)
        assert clone.spec_hash() == sub.spec_hash()
        assert clone.points() == sub.points()

    def test_subset_must_be_sorted_unique(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_spec(subset=(3, 1)).validate()
        with pytest.raises(ValueError, match="strictly increasing"):
            make_spec(subset=(1, 1)).validate()

    def test_subset_bounds_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            make_spec(subset=(0, 99)).points()
        with pytest.raises(ValueError, match="negative"):
            make_spec(subset=(-1, 2)).validate()

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            make_spec(subset=()).validate()
