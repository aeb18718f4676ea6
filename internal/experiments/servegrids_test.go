package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// servingGrids are the pinned serving-grid invocations: each sets the Lab's
// serving fields the way the named dipbench command line would.
var servingGrids = []struct {
	id, cmd string
	set     func(l *Lab)
}{
	{"serve", "-serve -small -workload poisson -seed 7 -fuse both -events", func(l *Lab) {
		l.ServeWorkload, l.ServeFuse = "poisson", "both"
	}},
	{"chaos", "-exp chaos -small -seed 7 -events", func(*Lab) {}},
	{"cluster", "-serve -small -nodes 3 -router least-loaded -node-chaos 0.03 -seed 7 -fuse both -events", func(l *Lab) {
		l.ServeNodes, l.ServeRouter, l.ServeNodeChaos, l.ServeFuse = 3, "least-loaded", 0.03, "both"
	}},
}

// resetServeFields zeroes every Lab.Serve* field, so a test that shapes
// the shared lab's serving grid leaves no trace for the next one.
func resetServeFields(l *Lab) {
	v := reflect.ValueOf(l).Elem()
	for i := 0; i < v.NumField(); i++ {
		if strings.HasPrefix(v.Type().Field(i).Name, "Serve") {
			v.Field(i).SetZero()
		}
	}
}

// renderServingGrid runs one pinned grid through the registry and renders
// its deterministic content: every table except the wall-only serve-fuse
// summary, with the wall* annotation columns dropped, followed by the
// sha256 of each event log the run exported.
func renderServingGrid(t *testing.T, id, cmd string, set func(*Lab)) string {
	t.Helper()
	resetServeFields(sharedLab)
	defer resetServeFields(sharedLab)
	dir := t.TempDir()
	sharedLab.ServeSmoke, sharedLab.ServeSeed = true, 7
	sharedLab.ServeEvents = filepath.Join(dir, "ev")
	set(sharedLab)
	tables, err := Run(sharedLab, id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "### dipbench %s\n", cmd)
	for _, tab := range tables {
		if tab.ID != "serve-fuse" {
			withoutWallColumns(tab).Render(&buf)
		}
	}
	logs, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) == 0 {
		t.Fatalf("%s exported no event logs", id)
	}
	sort.Strings(logs)
	for _, path := range logs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%x  %s\n", sha256.Sum256(b), filepath.Base(path))
	}
	buf.WriteString("\n")
	return buf.String()
}

// withoutWallColumns copies a table minus its host wall-clock columns, the
// one part of a serving grid outside the determinism contract.
func withoutWallColumns(tab *Table) *Table {
	out := &Table{ID: tab.ID, Title: tab.Title, Notes: tab.Notes}
	var keep []int
	for i, c := range tab.Columns {
		if !strings.HasPrefix(c, "wall") {
			keep = append(keep, i)
			out.Columns = append(out.Columns, c)
		}
	}
	for _, row := range tab.Rows {
		r := make([]string, len(keep))
		for j, i := range keep {
			r[j] = row[i]
		}
		out.Rows = append(out.Rows, r)
	}
	return out
}

// Golden test for the serving grids: the serve, chaos, and cluster drivers'
// tick-clocked tables and every exported event log must stay byte-identical
// — the determinism contract that refactors of the engine loop and the grid
// plumbing are held to. Regenerate (only for a deliberate output change) with
//
//	UPDATE_SERVEGRIDS_GOLDEN=1 go test ./internal/experiments -run TestServingGridsGolden
func TestServingGridsGolden(t *testing.T) {
	var got strings.Builder
	for _, g := range servingGrids {
		got.WriteString(renderServingGrid(t, g.id, g.cmd, g.set))
	}
	golden := filepath.Join("testdata", "servegrids.golden")
	if os.Getenv("UPDATE_SERVEGRIDS_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("serving grids drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
	}
}
