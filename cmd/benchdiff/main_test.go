package main

import (
	"encoding/json"
	"io"
	"testing"
)

// flat decodes and flattens one JSON report.
func flat(t *testing.T, src string) map[string]float64 {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(src), &v); err != nil {
		t.Fatal(err)
	}
	m := make(map[string]float64)
	if err := flatten("", v, m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRowsKeyedNotIndexed: deleting a row from the candidate report
// and reordering the rest must not shift any comparison. Under index
// alignment the locked cell would be compared against the durable one
// and report a 90% throughput regression; keyed by mode/shards/
// goroutines, every surviving row meets its own baseline.
func TestRowsKeyedNotIndexed(t *testing.T) {
	old := flat(t, `{"results": [
		{"mode": "locked", "shards": 1, "goroutines": 1, "admissions_per_sec": 100},
		{"mode": "optimistic", "shards": 1, "goroutines": 1, "admissions_per_sec": 120},
		{"mode": "durable", "shards": 1, "goroutines": 1, "admissions_per_sec": 10},
		{"mode": "locked", "shards": 4, "goroutines": 1, "admissions_per_sec": 300}
	], "scaling_efficiency": {"locked": 1.3, "optimistic": 1.1}}`)
	cand := flat(t, `{"results": [
		{"mode": "locked", "shards": 4, "goroutines": 1, "admissions_per_sec": 300},
		{"mode": "durable", "shards": 1, "goroutines": 1, "admissions_per_sec": 10},
		{"mode": "locked", "shards": 1, "goroutines": 1, "admissions_per_sec": 100}
	], "scaling_efficiency": {"locked": 1.3}}`)

	for _, p := range []string{
		"results[mode=locked/shards=1/goroutines=1].admissions_per_sec",
		"results[mode=durable/shards=1/goroutines=1].admissions_per_sec",
		"results[mode=locked/shards=4/goroutines=1].admissions_per_sec",
	} {
		if old[p] != cand[p] || old[p] == 0 {
			t.Errorf("%s: old %g, candidate %g — rows misaligned", p, old[p], cand[p])
		}
	}
	if _, ok := cand["results[mode=locked/shards=1/goroutines=1].shards"]; ok {
		t.Error("identifying fields were flattened as metrics")
	}
	worst, path, err := compare(old, cand, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if worst != 0 {
		t.Errorf("deleted/reordered rows produced a %.0f%% regression at %s", worst*100, path)
	}

	// A genuine regression in a moved row is still caught.
	slow := flat(t, `{"results": [
		{"mode": "durable", "shards": 1, "goroutines": 1, "admissions_per_sec": 4},
		{"mode": "locked", "shards": 1, "goroutines": 1, "admissions_per_sec": 100}
	]}`)
	worst, path, err = compare(old, slow, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if path != "results[mode=durable/shards=1/goroutines=1].admissions_per_sec" || worst < 0.59 || worst > 0.61 {
		t.Errorf("worst regression %.2f at %s, want 0.60 at the durable row", worst, path)
	}
}

// TestDuplicateRowRejected: two rows with the same identifying fields
// make the comparison ambiguous, so flattening refuses them.
func TestDuplicateRowRejected(t *testing.T) {
	var v any
	if err := json.Unmarshal([]byte(`{"results": [
		{"mode": "locked", "shards": 1, "goroutines": 1, "admissions_per_sec": 1},
		{"mode": "locked", "shards": 1, "goroutines": 1, "admissions_per_sec": 2}
	]}`), &v); err != nil {
		t.Fatal(err)
	}
	if err := flatten("", v, map[string]float64{}); err == nil {
		t.Error("duplicate row keys accepted")
	}
}

// TestUnkeyedArraysStayIndexed: arrays whose elements carry no
// identifying field keep index addressing.
func TestUnkeyedArraysStayIndexed(t *testing.T) {
	m := flat(t, `{"samples": [1.5, 2.5], "cells": [{"x": 3}]}`)
	if m["samples[0]"] != 1.5 || m["samples[1]"] != 2.5 || m["cells[0].x"] != 3 {
		t.Errorf("unkeyed arrays flattened to %v", m)
	}
}
