package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "root", start: msd(0), end: msd(100), parent: -1},
		{name: "a", start: msd(10), end: msd(30), parent: 0},
		{name: "b", start: msd(20), end: msd(50), parent: 0},  // overlaps a: union is 10..50
		{name: "c", start: msd(90), end: msd(120), parent: 0}, // runs past the parent: clipped to 90..100
		{name: "a1", start: msd(12), end: msd(18), parent: 1}, // grandchild: a's business, not root's
		{name: "lone", start: msd(200), end: msd(230), parent: -1},
	}
	got := selfTimes(spans)
	want := []time.Duration{msd(100 - 40 - 10), msd(20 - 6), msd(30), msd(30), msd(6), msd(30)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestRecorderTotalsAndNilRecorder(t *testing.T) {
	var off *recorder
	id := off.begin("x", -1, 0)
	off.end(id)
	off.in("y", id, 0, func(int) {})
	if dur, self, count := off.totals(); len(dur)+len(self)+len(count) != 0 {
		t.Error("a nil recorder must record nothing")
	}
	if err := off.writeChrome(filepath.Join(t.TempDir(), "none.json"), "w"); err != nil {
		t.Errorf("nil recorder writeChrome: %v", err)
	}

	rec := newRecorder()
	rec.in("step", -1, 7, func(id int) {
		rec.in("layer", id, 7, func(int) { time.Sleep(2 * time.Millisecond) })
	})
	open := rec.begin("unfinished", -1, 8)
	_ = open
	dur, self, count := rec.totals()
	if count["step"] != 1 || count["layer"] != 1 || count["unfinished"] != 0 {
		t.Errorf("counts = %v", count)
	}
	if dur["step"] < dur["layer"] || self["step"] != dur["step"]-dur["layer"] {
		t.Errorf("step dur %v self %v, layer dur %v", dur["step"], self["step"], dur["layer"])
	}
}

func TestLanesSeparateOverlappingRoots(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "r0", start: msd(0), end: msd(10), parent: -1},
		{name: "r1", start: msd(5), end: msd(15), parent: -1},  // overlaps r0
		{name: "r2", start: msd(10), end: msd(20), parent: -1}, // r0's lane is free again
		{name: "k", start: msd(6), end: msd(7), parent: 1},
	}
	got := lanes(spans)
	if got[0] == got[1] {
		t.Error("overlapping roots share a lane")
	}
	if got[2] != got[0] {
		t.Errorf("r2 lane %d, want r0's freed lane %d", got[2], got[0])
	}
	if got[3] != got[1] {
		t.Error("a child must sit in its root's lane")
	}
}

func TestWriteChromeIsLoadableJSON(t *testing.T) {
	rec := newRecorder()
	rec.in("distributed.step", -1, 3, func(id int) {
		rec.in("sptt.forward", id, 3, func(int) {})
	})
	past := rec.beginAt("serve.request", -1, 4, time.Now().Add(-time.Millisecond))
	rec.end(past)
	path := filepath.Join(t.TempDir(), "sub", "t.trace.json")
	if err := rec.writeChrome(path, "unit"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || !metricNameRE.MatchString(ev.Name) {
			t.Errorf("bad event %+v", ev)
		}
	}
	if doc.TraceEvents[1].Args["parent"].(float64) != 0 || doc.TraceEvents[1].Args["op"].(float64) != 3 {
		t.Errorf("child event args = %v", doc.TraceEvents[1].Args)
	}
}
