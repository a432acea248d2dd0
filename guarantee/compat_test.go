package guarantee

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenPlannerLedger: Open recovers a ledger written by a build that
// still ran two planner replicas per shard (its since-removed
// planner-count option set to 2). testdata/planners2 holds such a
// ledger — a snapshot whose config carries "planners": 2 and one
// placer state per planner, plus a write-ahead-log suffix written after
// it — and want.json the writer's live grants, load gauges and counters
// at the moment it was killed. The single admission path must recover every
// live grant with Float64bits-identical loads.
func TestOpenPlannerLedger(t *testing.T) {
	const fixture = "testdata/planners2"
	var want struct {
		Grants [][2]int64 `json:"grants"`
		Loads  []struct {
			ReservedBits string `json:"reserved_mbps_bits"`
			SlotsUsed    int    `json:"slots_used"`
			Tenants      int    `json:"tenants"`
		} `json:"loads"`
		Stats Stats `json:"stats"`
	}
	b, err := os.ReadFile(filepath.Join(fixture, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}

	// Open appends to the log it recovers, so it runs on a copy.
	dir := t.TempDir()
	snaps, err := filepath.Glob(filepath.Join(fixture, "ledger", "*"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("fixture ledger missing: %v", err)
	}
	for _, src := range snaps {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Ext(src) == ".snap" {
			assertPlannerSnapshot(t, data)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	svc, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer svc.Close(context.Background())

	grants := svc.Durability().Grants()
	if len(grants) != len(want.Grants) {
		t.Fatalf("recovered %d live grants, want %d", len(grants), len(want.Grants))
	}
	for i, g := range grants {
		if w := want.Grants[i]; int64(g.Shard()) != w[0] || g.Key() != w[1] {
			t.Errorf("grant %d is %d/%d, want %d/%d", i, g.Shard(), g.Key(), w[0], w[1])
		}
	}
	loads := svc.Loads()
	if len(loads) != len(want.Loads) {
		t.Fatalf("%d shards, want %d", len(loads), len(want.Loads))
	}
	for i, ld := range loads {
		w := want.Loads[i]
		if got := fmt.Sprintf("%016x", math.Float64bits(ld.ReservedMbps)); got != w.ReservedBits {
			t.Errorf("shard %d reserved bits %s, want %s", i, got, w.ReservedBits)
		}
		if ld.SlotsUsed != w.SlotsUsed || ld.Tenants != w.Tenants {
			t.Errorf("shard %d load %d slots/%d tenants, want %d/%d",
				i, ld.SlotsUsed, ld.Tenants, w.SlotsUsed, w.Tenants)
		}
	}
	if got := svc.Stats(); fmt.Sprint(got) != fmt.Sprint(want.Stats) {
		t.Errorf("recovered stats %+v, want %+v", got, want.Stats)
	}

	// The recovered grants are live: releasing them all drains the
	// fleet.
	for _, g := range grants {
		g.Release()
	}
	for i, ld := range svc.Loads() {
		if ld.SlotsUsed != 0 || ld.Tenants != 0 {
			t.Errorf("shard %d not drained after releasing every recovered grant: %+v", i, ld)
		}
	}
}

// assertPlannerSnapshot checks the fixture is what it claims to be: a
// snapshot written with two planners per shard.
func assertPlannerSnapshot(t *testing.T, data []byte) {
	t.Helper()
	var snap struct {
		Config struct {
			Planners int `json:"planners"`
		} `json:"config"`
		Shards []struct {
			PlacerStates []float64 `json:"placer_states"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Config.Planners != 2 {
		t.Fatalf("fixture snapshot config planners = %d, want 2", snap.Config.Planners)
	}
	for i, sh := range snap.Shards {
		if len(sh.PlacerStates) != 2 {
			t.Fatalf("fixture shard %d has %d placer states, want 2", i, len(sh.PlacerStates))
		}
	}
}
