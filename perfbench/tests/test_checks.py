"""Artifact comparison: fields by name, integers exactly, floats within the
stated tolerance."""

import workloads as wl

CSV = (
    "scenario,n,seed,method,ci_type,level,coverage\n"
    "SC2,2000,1,lrb-surrogate,nor,0.95,0.75\n"
    "SC2,2000,1,lrb-surrogate,per,0.95,0.5\n"
)
# the same table with the seed column moved and the rows swapped
MOVED = (
    "scenario,n,method,ci_type,level,coverage,seed\n"
    "SC2,2000,lrb-surrogate,per,0.95,0.5,1\n"
    "SC2,2000,lrb-surrogate,nor,0.95,0.75,1\n"
)


def test_csv_fields_compare_by_name_not_position():
    assert wl.compare(wl.parse("csv", CSV.encode()), wl.parse("csv", MOVED.encode())) == []


def test_csv_value_change_is_reported():
    changed = MOVED.replace(",0.5,1", ",0.6,1").encode()
    diff = wl.compare(wl.parse("csv", CSV.encode()), wl.parse("csv", changed))
    assert len(diff) == 1 and "coverage" in diff[0]


def test_floats_within_tolerance_integers_exact():
    base = {"se_hat": [0.25], "n_failed": 0, "final_l": 6, "converged": True}
    assert wl.compare(base, {**base, "se_hat": [0.25 * (1 + 0.1 * wl.RTOL)]}) == []
    assert wl.compare(base, {**base, "se_hat": [0.25 * (1 + 10 * wl.RTOL)]})
    assert wl.compare(base, {**base, "n_failed": 1})
    assert wl.compare(base, {**base, "final_l": 6.0})
    assert wl.compare(base, {**base, "converged": 1})
    assert wl.compare(base, {k: v for k, v in base.items() if k != "final_l"})


def test_nan_matches_nan():
    assert wl.compare({"w": float("nan")}, {"w": float("nan")}) == []


def test_stored_references_pass_the_invariants():
    for w in wl.workloads(2).values():
        ref = wl.load_reference(w.name)
        assert wl.invariants(w, wl.parse(w.artifact, ref["toy"].encode()), toy=True) == []
        assert ref["seeds"], w.name
        for art in ref["seeds"].values():
            assert wl.invariants(w, wl.parse(w.artifact, art.encode())) == []
