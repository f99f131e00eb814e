package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := span{start: 0, end: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint children", []span{{start: 10, end: 20}, {start: 50, end: 80}}, 60},
		{"overlapping children count once", []span{{start: 10, end: 40}, {start: 30, end: 60}}, 50},
		{"nested children count once", []span{{start: 10, end: 90}, {start: 20, end: 30}}, 20},
		{"children clipped to the parent", []span{{start: -50, end: 10}, {start: 95, end: 200}}, 85},
		{"child outside the parent", []span{{start: 200, end: 300}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// TestAttributeAddsUp checks that sequential children make an
// operation's self times sum exactly to its wall time, and that
// overlapping or escaping children are reported as violations.
func TestAttributeAddsUp(t *testing.T) {
	ok := []span{
		{layer: "mine", start: 0, end: 1_000_000, parent: -1},
		{layer: "search.beam", start: 100_000, end: 900_000, parent: 0},
		{layer: "si.scorer_prep", start: 10_000, end: 90_000, parent: 0},
		{layer: "engine.inner", start: 200_000, end: 300_000, parent: 1},
		{layer: "store.put", start: 5, end: 6, parent: orphan},
	}
	bd := attribute(ok)
	if bd.violations != 0 || bd.worstExcess != 0 || bd.checked != 1 {
		t.Fatalf("sequential spans: %d violations, excess %d, %d checked", bd.violations, bd.worstExcess, bd.checked)
	}
	var sum int64
	for _, v := range bd.self {
		sum += v
	}
	if sum != 1_000_000 {
		t.Errorf("self times sum to %d, want the wall time 1000000", sum)
	}
	if bd.self["search.beam"] != 700_000 || bd.self["mine"] != 120_000 {
		t.Errorf("self times %v", bd.self)
	}
	if a := bd.byRoot["mine/engine.inner"]; a.calls != 1 || a.dur != 100_000 {
		t.Errorf("byRoot entry %+v", a)
	}

	for name, spans := range map[string][]span{
		"overlapping siblings": {
			{layer: "mine", start: 0, end: 1_000_000, parent: -1},
			{layer: "a", start: 0, end: 600_000, parent: 0},
			{layer: "b", start: 400_000, end: 1_000_000, parent: 0},
		},
		"child escaping its parent": {
			{layer: "mine", start: 0, end: 1_000_000, parent: -1},
			{layer: "a", start: 0, end: 500_000, parent: 0},
			{layer: "b", start: 400_000, end: 700_000, parent: 1},
		},
	} {
		bd := attribute(spans)
		if bd.violations != 1 || bd.worstExcess != 200_000 {
			t.Errorf("%s: %d violations, excess %d; want 1, 200000", name, bd.violations, bd.worstExcess)
		}
	}
}

func TestLink(t *testing.T) {
	spans := []span{
		{layer: "mine", key: "s1", start: 0, end: 100, parent: -1},
		{layer: "mine", key: "s2", start: 0, end: 100, parent: -1},
		{layer: "router", key: "s1", start: 5, end: 95, parent: -1},
		{layer: "shard", key: "s1", start: 10, end: 90, parent: -1},
		{layer: "store.get", key: "s1", start: 20, end: 30, parent: -1},
		{layer: "store.put", key: "s9", start: 20, end: 30, parent: -1}, // an eviction
	}
	link(spans)
	for i, want := range []int{-1, -1, 0, 2, 3, orphan} {
		if spans[i].parent != want {
			t.Errorf("span %d (%s %s): parent %d, want %d", i, spans[i].layer, spans[i].key, spans[i].parent, want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with the metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}
